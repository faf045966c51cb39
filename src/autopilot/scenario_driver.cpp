#include "autopilot/scenario_driver.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "costmodel/weighted_cost.h"

namespace lpa::autopilot {

double ObservedMixCost(const costmodel::CostModel* model,
                       const workload::Workload* workload,
                       const partition::PartitioningState& design,
                       std::vector<double> mix) {
  double sum = 0.0;
  for (double f : mix) sum += std::max(0.0, f);
  if (sum > 0.0) {
    for (double& f : mix) f = std::max(0.0, f) / sum;
  }
  return costmodel::WeightedCost(
      workload->num_queries(), mix, [&](int j, double) {
        return model->QueryCost(workload->query(j), design);
      });
}

costmodel::HardwareProfile ContendedProfile(
    costmodel::HardwareProfile profile) {
  profile.scan_bytes_per_sec *= 0.5;
  profile.join_tuples_per_sec *= 0.5;
  profile.shuffle_bytes_per_sec *= 0.5;
  return profile;
}

void ApplyScenarioOverrides(ScenarioKind kind, AutopilotConfig* config) {
  if (kind != ScenarioKind::kForcedRegression) return;
  config->retrain.validation_gate = false;
  config->retrain.candidate_override =
      [](advisor::AdvisorHandle& candidate)
      -> std::optional<partition::PartitioningState> {
    return partition::PartitioningState::Initial(
        &candidate.advisor().schema(), &candidate.advisor().edges());
  };
}

ScenarioDriver::ScenarioDriver(Autopilot* pilot, ScenarioKind kind,
                               uint64_t seed)
    : pilot_(pilot),
      scenario_(kind, &pilot->controller().incumbent().advisor().schema(),
                &pilot->controller().incumbent().advisor().workload(), seed) {}

Result<TickOutcome> ScenarioDriver::Step(std::ostream* log) {
  ScenarioTick t = scenario_.Next();
  const int tick = tick_++;
  if (t.drift_onset && first_onset_ < 0) first_onset_ = tick;

  RetrainController& controller = pilot_->controller();
  if (t.contention_begins) {
    // The interconnect / host telemetry now reports contention: re-price
    // everything — observations, holdout validation, probation — with the
    // degraded profile, exactly as a recalibrating production monitor would.
    contended_.emplace(&controller.incumbent().advisor().schema(),
                       ContendedProfile(controller.cost_model()->hardware()));
    pilot_->UpdateCostModel(&*contended_);
  }

  WorkloadSample sample;
  sample.frequencies = t.mix;
  sample.new_queries = std::move(t.new_queries);
  sample.observed_cost = ObservedMixCost(
      controller.cost_model(), &controller.incumbent().advisor().workload(),
      controller.deployed_design(), t.mix);
  last_cost_ = sample.observed_cost;
  last_mix_ = std::move(t.mix);

  Result<TickOutcome> outcome = pilot_->Tick(sample);
  if (!outcome.ok()) return outcome;
  if (outcome->verdict.triggered() && detection_latency_ < 0 &&
      first_onset_ >= 0) {
    detection_latency_ = tick - first_onset_;
  }
  if (log != nullptr && (outcome->verdict.triggered() ||
                         outcome->action != TickOutcome::Action::kNone)) {
    *log << "[autopilot] tick " << tick << ": "
         << DriftKindName(outcome->verdict.kind) << " -> "
         << TickActionName(outcome->action);
    if (!outcome->detail.empty()) *log << " (" << outcome->detail << ")";
    *log << "\n";
  }
  return outcome;
}

}  // namespace lpa::autopilot
