#include "nn/mlp.h"

#include <cmath>

#include "util/logging.h"

namespace lpa::nn {

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {
  LPA_CHECK(config_.input_dim > 0 && config_.output_dim > 0);
  Rng rng(config_.seed);
  std::vector<int> dims;
  dims.push_back(config_.input_dim);
  for (int h : config_.hidden) dims.push_back(h);
  dims.push_back(config_.output_dim);
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    Layer layer;
    size_t in = static_cast<size_t>(dims[l]);
    size_t out = static_cast<size_t>(dims[l + 1]);
    layer.w = Matrix(in, out);
    layer.b = Matrix(1, out);
    // Xavier/Glorot uniform initialisation.
    double limit = std::sqrt(6.0 / static_cast<double>(in + out));
    for (double& v : layer.w.data()) v = rng.Uniform(-limit, limit);
    layer.mw = Matrix(in, out);
    layer.vw = Matrix(in, out);
    layer.mb = Matrix(1, out);
    layer.vb = Matrix(1, out);
    layers_.push_back(std::move(layer));
  }
}

Matrix Mlp::ForwardTape(const Matrix& x, Tape* tape, ThreadPool* pool) const {
  LPA_CHECK(static_cast<int>(x.cols()) == config_.input_dim);
  if (tape != nullptr) {
    tape->input = &x;
    tape->hidden.clear();
    tape->hidden.reserve(layers_.size() - 1);
  }
  const Matrix* in = &x;
  Matrix a;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    Matrix z(in->rows(), layer.w.cols());
    Gemm(*in, layer.w, &z, pool);
    const double* bias = layer.b.row(0);
    const bool relu = l + 1 < layers_.size();  // linear output layer
    for (size_t r = 0; r < z.rows(); ++r) {
      double* zr = z.row(r);
      for (size_t c = 0; c < z.cols(); ++c) {
        const double v = zr[c] + bias[c];
        zr[c] = relu && !(v > 0.0) ? 0.0 : v;
      }
    }
    if (relu && tape != nullptr) {
      tape->hidden.push_back(std::move(z));
      in = &tape->hidden.back();
    } else {
      a = std::move(z);
      in = &a;
    }
  }
  return a;
}

Matrix Mlp::Forward(const Matrix& x, ThreadPool* pool) const {
  return ForwardTape(x, nullptr, pool);
}

std::vector<double> Mlp::Forward(const std::vector<double>& x) const {
  Matrix out = Forward(Matrix::FromRow(x));
  return out.data();
}

namespace {
/// Elements per chunk for the elementwise Adam / Polyak updates. Measured on
/// a 4-core x86 host, splitting Adam over 2 or 4 threads gained nothing up to
/// 100k elements (it is bound by the divide and sqrt units) and 1.3x at 1M,
/// so the Table 1 network's layers (at most ~10k weights) update inline.
constexpr size_t kElemChunk = 256 * 1024;
}  // namespace

void Mlp::AdamStep(Matrix* param, Matrix* m, Matrix* v, const Matrix& grad,
                   double lr, ThreadPool* pool) {
  const double t = static_cast<double>(adam_t_);
  const AdamCoeffs k{config_.beta1,
                     config_.beta2,
                     config_.epsilon,
                     1.0 - std::pow(config_.beta1, t),
                     1.0 - std::pow(config_.beta2, t),
                     lr};
  double* p = param->data().data();
  double* mp = m->data().data();
  double* vp = v->data().data();
  const double* g = grad.data().data();
  auto elems = [&k, p, mp, vp, g](size_t begin, size_t end) {
    AdamUpdate(k, g + begin, mp + begin, vp + begin, p + begin, end - begin);
  };
  if (pool != nullptr) {
    pool->ParallelFor(param->size(), kElemChunk, elems);
  } else {
    elems(0, param->size());
  }
}

void Mlp::Backward(const Tape& tape, Matrix delta, double lr,
                   ThreadPool* pool) {
  ++adam_t_;
  // `delta` is the gradient w.r.t. the current layer's output.
  for (size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = layers_[l];
    const Matrix& input = l == 0 ? *tape.input : tape.hidden[l - 1];
    // ReLU derivative for hidden layers (output layer is linear).
    if (l + 1 < layers_.size()) {
      const Matrix& out = tape.hidden[l];
      for (size_t i = 0; i < delta.size(); ++i) {
        if (out.data()[i] <= 0.0) delta.data()[i] = 0.0;
      }
    }
    Matrix dw(layer.w.rows(), layer.w.cols());
    GemmTransA(input, delta, &dw, pool);
    Matrix db(1, layer.b.cols());
    for (size_t r = 0; r < delta.rows(); ++r) {
      for (size_t c = 0; c < delta.cols(); ++c) db.at(0, c) += delta.at(r, c);
    }
    Matrix dprev;
    if (l > 0) {
      dprev = Matrix(delta.rows(), layer.w.rows());
      GemmTransB(delta, layer.w, &dprev, pool);
    }
    AdamStep(&layer.w, &layer.mw, &layer.vw, dw, lr, pool);
    AdamStep(&layer.b, &layer.mb, &layer.vb, db, lr, pool);
    delta = std::move(dprev);
  }
}

double Mlp::TrainMaskedMse(const Matrix& x, const std::vector<int>& head,
                           const std::vector<double>& target, double lr,
                           ThreadPool* pool) {
  LPA_CHECK(x.rows() == head.size() && x.rows() == target.size());
  Tape tape;
  Matrix pred = ForwardTape(x, &tape, pool);
  Matrix dloss(pred.rows(), pred.cols());
  double loss = 0.0;
  double inv_batch = 1.0 / static_cast<double>(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    int h = head[r];
    LPA_CHECK(h >= 0 && h < static_cast<int>(pred.cols()));
    double err = pred.at(r, static_cast<size_t>(h)) - target[r];
    loss += err * err * inv_batch;
    dloss.at(r, static_cast<size_t>(h)) = 2.0 * err * inv_batch;
  }
  Backward(tape, std::move(dloss), lr, pool);
  return loss;
}

double Mlp::TrainMse(const Matrix& x, const Matrix& target, double lr,
                     ThreadPool* pool) {
  LPA_CHECK(x.rows() == target.rows());
  Tape tape;
  Matrix pred = ForwardTape(x, &tape, pool);
  LPA_CHECK(pred.cols() == target.cols());
  Matrix dloss(pred.rows(), pred.cols());
  double loss = 0.0;
  double inv = 1.0 / static_cast<double>(pred.size());
  for (size_t i = 0; i < pred.data().size(); ++i) {
    double err = pred.data()[i] - target.data()[i];
    loss += err * err * inv;
    dloss.data()[i] = 2.0 * err * inv;
  }
  Backward(tape, std::move(dloss), lr, pool);
  return loss;
}

void Mlp::SoftUpdateFrom(const Mlp& src, double tau, ThreadPool* pool) {
  LPA_CHECK(layers_.size() == src.layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    LPA_CHECK(layers_[l].w.size() == src.layers_[l].w.size());
    double* w = layers_[l].w.data().data();
    const double* sw = src.layers_[l].w.data().data();
    auto blend = [tau, w, sw](size_t b, size_t e) {
      PolyakBlend(tau, sw + b, w + b, e - b);
    };
    if (pool != nullptr) {
      pool->ParallelFor(layers_[l].w.size(), kElemChunk, blend);
    } else {
      blend(0, layers_[l].w.size());
    }
    PolyakBlend(tau, src.layers_[l].b.data().data(), layers_[l].b.data().data(),
                layers_[l].b.size());
  }
}

void Mlp::CopyFrom(const Mlp& src) { SoftUpdateFrom(src, 1.0); }

size_t Mlp::num_parameters() const {
  size_t n = 0;
  for (const auto& layer : layers_) n += layer.w.size() + layer.b.size();
  return n;
}

Mlp Mlp::WithExtendedInput(int extra) const {
  LPA_CHECK(extra >= 0);
  MlpConfig config = config_;
  config.input_dim += extra;
  Mlp grown(config);
  // Copy every layer; the first layer's new weight rows become zero.
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& src = layers_[l];
    Layer& dst = grown.layers_[l];
    if (l == 0) {
      dst.w.Fill(0.0);
      for (size_t r = 0; r < src.w.rows(); ++r) {
        for (size_t c = 0; c < src.w.cols(); ++c) {
          dst.w.at(r, c) = src.w.at(r, c);
        }
      }
      dst.mw.Fill(0.0);
      dst.vw.Fill(0.0);
      for (size_t r = 0; r < src.w.rows(); ++r) {
        for (size_t c = 0; c < src.w.cols(); ++c) {
          dst.mw.at(r, c) = src.mw.at(r, c);
          dst.vw.at(r, c) = src.vw.at(r, c);
        }
      }
    } else {
      dst.w = src.w;
      dst.mw = src.mw;
      dst.vw = src.vw;
    }
    dst.b = src.b;
    dst.mb = src.mb;
    dst.vb = src.vb;
  }
  grown.adam_t_ = adam_t_;
  return grown;
}

Status Mlp::Save(std::ostream& os) const {
  os << "mlp " << config_.input_dim << ' ' << config_.hidden.size();
  for (int h : config_.hidden) os << ' ' << h;
  os << ' ' << config_.output_dim << ' ' << config_.seed << '\n';
  os.precision(17);
  for (const auto& layer : layers_) {
    for (double v : layer.w.data()) os << v << ' ';
    for (double v : layer.b.data()) os << v << ' ';
    os << '\n';
  }
  if (!os.good()) return Status::Internal("stream write failed");
  return Status::OK();
}

Result<Mlp> Mlp::Load(std::istream& is) {
  std::string magic;
  is >> magic;
  if (magic != "mlp") return Status::InvalidArgument("not an mlp stream");
  MlpConfig config;
  size_t num_hidden = 0;
  is >> config.input_dim >> num_hidden;
  config.hidden.resize(num_hidden);
  for (auto& h : config.hidden) is >> h;
  is >> config.output_dim >> config.seed;
  if (!is.good()) return Status::InvalidArgument("truncated mlp header");
  Mlp mlp(config);
  for (auto& layer : mlp.layers_) {
    for (double& v : layer.w.data()) is >> v;
    for (double& v : layer.b.data()) is >> v;
  }
  if (is.fail()) return Status::InvalidArgument("truncated mlp weights");
  return mlp;
}

}  // namespace lpa::nn
