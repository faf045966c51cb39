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
  train_.hidden.resize(layers_.size() - 1);
  train_.dw.resize(layers_.size());
  train_.db.resize(layers_.size());
}

void Mlp::Affine(size_t l, const Matrix& in, Matrix* out,
                 ThreadPool* pool) const {
  const Layer& layer = layers_[l];
  out->Resize(in.rows(), layer.w.cols());
  Gemm(in, layer.w, out, pool);
  const double* bias = layer.b.row(0);
  const bool relu = l + 1 < layers_.size();  // linear output layer
  for (size_t r = 0; r < out->rows(); ++r) {
    double* zr = out->row(r);
    for (size_t c = 0; c < out->cols(); ++c) {
      const double v = zr[c] + bias[c];
      zr[c] = relu && !(v > 0.0) ? 0.0 : v;
    }
  }
}

Matrix Mlp::Forward(const Matrix& x, ThreadPool* pool) const {
  LPA_CHECK(static_cast<int>(x.cols()) == config_.input_dim);
  Matrix a;
  const Matrix* in = &x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    Matrix z;
    Affine(l, *in, &z, pool);
    a = std::move(z);
    in = &a;
  }
  return a;
}

std::vector<double> Mlp::Forward(const std::vector<double>& x) const {
  Matrix out = Forward(Matrix::FromRow(x));
  return out.data();
}

const Matrix& Mlp::ForwardHidden(const Matrix& x, ThreadPool* pool) {
  LPA_CHECK(static_cast<int>(x.cols()) == config_.input_dim);
  const Matrix* in = &x;
  for (size_t l = 0; l + 1 < layers_.size(); ++l) {
    Affine(l, *in, &train_.hidden[l], pool);
    in = &train_.hidden[l];
  }
  return *in;
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

void Mlp::Backward(const Matrix& x, size_t top, ThreadPool* pool) {
  Matrix& delta = train_.delta;
  for (size_t l = top + 1; l-- > 0;) {
    const Layer& layer = layers_[l];
    const Matrix& input = l == 0 ? x : train_.hidden[l - 1];
    // ReLU derivative for hidden layers (output layer is linear).
    if (l + 1 < layers_.size()) {
      const Matrix& out = train_.hidden[l];
      for (size_t i = 0; i < delta.size(); ++i) {
        if (out.data()[i] <= 0.0) delta.data()[i] = 0.0;
      }
    }
    Matrix& dw = train_.dw[l];
    dw.Resize(layer.w.rows(), layer.w.cols());
    GemmTransA(input, delta, &dw, pool);
    Matrix& db = train_.db[l];
    db.Resize(1, layer.b.cols());
    db.Fill(0.0);
    for (size_t r = 0; r < delta.rows(); ++r) {
      for (size_t c = 0; c < delta.cols(); ++c) db.at(0, c) += delta.at(r, c);
    }
    if (l > 0) {
      train_.dprev.Resize(delta.rows(), layer.w.rows());
      GemmTransB(delta, layer.w, &train_.dprev, pool);
      std::swap(delta, train_.dprev);
    }
  }
}

void Mlp::ApplyGradients(double lr, ThreadPool* pool) {
  ++adam_t_;
  for (size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];
    AdamStep(&layer.w, &layer.mw, &layer.vw, train_.dw[l], lr, pool);
    AdamStep(&layer.b, &layer.mb, &layer.vb, train_.db[l], lr, pool);
  }
}

double Mlp::TrainMaskedMse(const Matrix& x, const std::vector<int>& head,
                           const std::vector<double>& target, double lr,
                           ThreadPool* pool) {
  LPA_CHECK(x.rows() == head.size() && x.rows() == target.size());
  const Matrix& in = ForwardHidden(x, pool);
  const size_t last = layers_.size() - 1;
  const Layer& out = layers_[last];
  const size_t batch = in.rows(), width = in.cols(), heads = out.w.cols();
  Matrix& dw = train_.dw[last];
  Matrix& db = train_.db[last];
  dw.Resize(width, heads);
  dw.Fill(0.0);
  db.Resize(1, heads);
  db.Fill(0.0);
  train_.delta.Resize(batch, width);
  // Only row i's head h carries loss gradient, so the output layer needs
  // Q(s_i, h) alone, and its dW, db and dprev only touch column h. Each
  // element keeps the dense GEMM's summation: from +0.0 over ascending p for
  // the prediction, over ascending rows for dW[p][h] and db[h]. The terms
  // the dense products add for other heads are +-0 and change nothing (see
  // nn/matrix.cpp), and a head no row hits keeps gradient +0.0.
  double loss = 0.0;
  const double inv_batch = 1.0 / static_cast<double>(batch);
  for (size_t r = 0; r < batch; ++r) {
    LPA_CHECK(head[r] >= 0 && head[r] < static_cast<int>(heads));
    const size_t h = static_cast<size_t>(head[r]);
    const double* a = in.row(r);
    double q = 0.0;
    for (size_t p = 0; p < width; ++p) q += a[p] * out.w.at(p, h);
    const double err = q + out.b.at(0, h) - target[r];
    loss += err * err * inv_batch;
    const double g = 2.0 * err * inv_batch;
    db.at(0, h) += g;
    double* dprev = train_.delta.row(r);
    for (size_t p = 0; p < width; ++p) {
      dw.at(p, h) += a[p] * g;
      double d = 0.0;
      d += g * out.w.at(p, h);
      dprev[p] = d;
    }
  }
  if (last > 0) Backward(x, last - 1, pool);
  ApplyGradients(lr, pool);
  return loss;
}

double Mlp::TrainMse(const Matrix& x, const Matrix& target, double lr,
                     ThreadPool* pool) {
  LPA_CHECK(x.rows() == target.rows());
  const size_t last = layers_.size() - 1;
  Affine(last, ForwardHidden(x, pool), &train_.out, pool);
  const Matrix& pred = train_.out;
  LPA_CHECK(pred.cols() == target.cols());
  Matrix& dloss = train_.delta;
  dloss.Resize(pred.rows(), pred.cols());
  double loss = 0.0;
  double inv = 1.0 / static_cast<double>(pred.size());
  for (size_t i = 0; i < pred.data().size(); ++i) {
    double err = pred.data()[i] - target.data()[i];
    loss += err * err * inv;
    dloss.data()[i] = 2.0 * err * inv;
  }
  Backward(x, last, pool);
  ApplyGradients(lr, pool);
  return loss;
}

bool Mlp::SameArchitecture(const Mlp& other) const {
  if (layers_.size() != other.layers_.size()) return false;
  for (size_t l = 0; l < layers_.size(); ++l) {
    if (layers_[l].w.rows() != other.layers_[l].w.rows() ||
        layers_[l].w.cols() != other.layers_[l].w.cols()) {
      return false;
    }
  }
  return true;
}

void Mlp::SoftUpdateFrom(const Mlp& src, double tau, ThreadPool* pool) {
  LPA_CHECK(SameArchitecture(src));
  for (size_t l = 0; l < layers_.size(); ++l) {
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
  // Read as signed, so that a negative width is rejected instead of wrapped.
  int64_t input = 0, num_hidden = 0, output = 0;
  is >> input >> num_hidden;
  if (!is.good() || num_hidden < 0 ||
      num_hidden > static_cast<int64_t>(kMaxLoadHidden)) {
    return Status::InvalidArgument("bad mlp header");
  }
  std::vector<int64_t> hidden(static_cast<size_t>(num_hidden));
  for (auto& h : hidden) is >> h;
  MlpConfig config;
  is >> output >> config.seed;
  if (!is.good()) return Status::InvalidArgument("truncated mlp header");
  std::vector<int64_t> dims = {input};
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(output);
  size_t parameters = 0;
  for (size_t l = 0; l < dims.size(); ++l) {
    if (dims[l] < 1 || dims[l] > kMaxLoadWidth) {
      return Status::InvalidArgument("mlp layer width out of range");
    }
    if (l > 0) parameters += static_cast<size_t>((dims[l - 1] + 1) * dims[l]);
  }
  if (parameters > kMaxLoadParameters) {
    return Status::InvalidArgument("mlp has too many parameters");
  }
  config.input_dim = static_cast<int>(input);
  config.hidden.assign(hidden.begin(), hidden.end());
  config.output_dim = static_cast<int>(output);
  Mlp mlp(config);
  for (auto& layer : mlp.layers_) {
    for (double& v : layer.w.data()) is >> v;
    for (double& v : layer.b.data()) is >> v;
  }
  if (is.fail()) return Status::InvalidArgument("truncated mlp weights");
  return mlp;
}

}  // namespace lpa::nn
