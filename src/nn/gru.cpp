#include "nn/gru.h"

#include <cmath>
#include <stdexcept>

#include "tensor/gemm.h"

namespace sne::nn {

namespace {

Tensor glorot(std::int64_t rows, std::int64_t cols, Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(rows + cols));
  return Tensor::rand_uniform({rows, cols}, rng, -bound, bound);
}

void sigmoid_inplace(Tensor& t) {
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t[i] = 1.0f / (1.0f + std::exp(-t[i]));
  }
}

void tanh_inplace(Tensor& t) {
  for (std::int64_t i = 0; i < t.size(); ++i) t[i] = std::tanh(t[i]);
}

void add_bias(Tensor& t, const Tensor& bias) {
  const std::int64_t n = t.extent(0);
  const std::int64_t f = t.extent(1);
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = t.data() + i * f;
    for (std::int64_t j = 0; j < f; ++j) row[j] += bias[j];
  }
}

// dW[H,in] += gᵀ[H,N] · x[N,in];  db[H] += column sums of g.
void accumulate_affine_grads(const Tensor& g, const Tensor& x, Param& w,
                             Param& b) {
  sgemm_at(w.value.extent(0), w.value.extent(1), g.extent(0), g.data(),
           x.data(), 1.0f, w.grad.data());
  const std::int64_t n = g.extent(0);
  const std::int64_t h = g.extent(1);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = g.data() + i * h;
    for (std::int64_t j = 0; j < h; ++j) b.grad[j] += row[j];
  }
}

// out[N,in] += g[N,H] · W[H,in]
void backprop_affine_input(const Tensor& g, const Param& w, Tensor& out) {
  Tensor tmp({g.extent(0), w.value.extent(1)});
  sgemm(g.extent(0), w.value.extent(1), g.extent(1), g.data(),
        w.value.data(), 0.0f, tmp.data());
  out += tmp;
}

}  // namespace

Gru::Gru(std::int64_t input_size, std::int64_t hidden_size, Rng& rng,
         std::string name)
    : input_(input_size),
      hidden_(hidden_size),
      wz_(name + ".wz", glorot(hidden_size, input_size, rng)),
      uz_(name + ".uz", glorot(hidden_size, hidden_size, rng)),
      bz_(name + ".bz", Tensor({hidden_size})),
      wr_(name + ".wr", glorot(hidden_size, input_size, rng)),
      ur_(name + ".ur", glorot(hidden_size, hidden_size, rng)),
      br_(name + ".br", Tensor({hidden_size})),
      wn_(name + ".wn", glorot(hidden_size, input_size, rng)),
      un_(name + ".un", glorot(hidden_size, hidden_size, rng)),
      bn_(name + ".bn", Tensor({hidden_size})) {
  if (input_size <= 0 || hidden_size <= 0) {
    throw std::invalid_argument("Gru: sizes must be positive");
  }
}

void Gru::affine(const Tensor& x, const Param& w, Tensor& y) {
  sgemm_bt(x.extent(0), w.value.extent(0), x.extent(1), x.data(),
           w.value.data(), 1.0f, y.data());
}

Tensor Gru::forward(const Tensor& x) {
  if (x.rank() != 3 || x.extent(2) != input_) {
    throw std::invalid_argument("Gru::forward: expected [N, T, " +
                                std::to_string(input_) + "], got " +
                                x.shape_string());
  }
  const std::int64_t n = x.extent(0);
  const std::int64_t steps = x.extent(1);

  cached_x_.clear();
  cached_h_prev_.clear();
  cached_z_.clear();
  cached_r_.clear();
  cached_n_.clear();

  Tensor h({n, hidden_});
  for (std::int64_t t = 0; t < steps; ++t) {
    // Slice x_t out of the [N, T, D] batch.
    Tensor xt({n, input_});
    for (std::int64_t i = 0; i < n; ++i) {
      const float* src = x.data() + (i * steps + t) * input_;
      std::copy(src, src + input_, xt.data() + i * input_);
    }

    Tensor z({n, hidden_});
    affine(xt, wz_, z);
    affine(h, uz_, z);
    add_bias(z, bz_.value);
    sigmoid_inplace(z);

    Tensor r({n, hidden_});
    affine(xt, wr_, r);
    affine(h, ur_, r);
    add_bias(r, br_.value);
    sigmoid_inplace(r);

    Tensor rh = r;
    rh *= h;
    Tensor ncand({n, hidden_});
    affine(xt, wn_, ncand);
    affine(rh, un_, ncand);
    add_bias(ncand, bn_.value);
    tanh_inplace(ncand);

    cached_x_.push_back(std::move(xt));
    cached_h_prev_.push_back(h);
    cached_z_.push_back(z);
    cached_r_.push_back(r);
    cached_n_.push_back(ncand);

    Tensor h_new({n, hidden_});
    const Tensor& zc = cached_z_.back();
    const Tensor& nc = cached_n_.back();
    for (std::int64_t i = 0; i < h_new.size(); ++i) {
      h_new[i] = (1.0f - zc[i]) * nc[i] + zc[i] * h[i];
    }
    h = std::move(h_new);
  }
  return h;
}

void Gru::infer_into(ConstTensorView x, Tensor& out) const {
  if (x.rank() != 3 || x.extent(2) != input_) {
    throw std::invalid_argument("Gru::infer_into: expected [N, T, " +
                                std::to_string(input_) + "], got " +
                                x.shape_string());
  }
  const std::int64_t n = x.extent(0);
  const std::int64_t steps = x.extent(1);

  // Per-thread, grow-only scratch: one tensor per recurrence quantity
  // instead of the per-timestep cache vectors the training path keeps.
  thread_local Tensor xt, z, r, rh, ncand;
  xt.resize({n, input_});
  z.resize({n, hidden_});
  r.resize({n, hidden_});
  rh.resize({n, hidden_});
  ncand.resize({n, hidden_});

  out.resize({n, hidden_});
  out.zero();  // h_0 = 0
  for (std::int64_t t = 0; t < steps; ++t) {
    for (std::int64_t i = 0; i < n; ++i) {
      const float* src = x.data() + (i * steps + t) * input_;
      std::copy(src, src + input_, xt.data() + i * input_);
    }

    z.zero();
    affine(xt, wz_, z);
    affine(out, uz_, z);
    add_bias(z, bz_.value);
    sigmoid_inplace(z);

    r.zero();
    affine(xt, wr_, r);
    affine(out, ur_, r);
    add_bias(r, br_.value);
    sigmoid_inplace(r);

    std::copy(r.data(), r.data() + r.size(), rh.data());
    rh *= out;
    ncand.zero();
    affine(xt, wn_, ncand);
    affine(rh, un_, ncand);
    add_bias(ncand, bn_.value);
    tanh_inplace(ncand);

    // h_t = (1 − z) ⊙ ñ + z ⊙ h_{t−1}, updated in place.
    for (std::int64_t i = 0; i < out.size(); ++i) {
      out[i] = (1.0f - z[i]) * ncand[i] + z[i] * out[i];
    }
  }
}

Shape Gru::infer_shape(const Shape& in) const {
  if (in.size() != 3 || in[2] != input_) {
    throw std::invalid_argument("Gru::infer_shape: bad input shape");
  }
  return {in[0], hidden_};
}

Tensor Gru::backward(const Tensor& grad_output) {
  if (cached_x_.empty()) {
    throw std::logic_error("Gru::backward before forward");
  }
  const auto steps = static_cast<std::int64_t>(cached_x_.size());
  const std::int64_t n = cached_x_[0].extent(0);
  if (grad_output.rank() != 2 || grad_output.extent(0) != n ||
      grad_output.extent(1) != hidden_) {
    throw std::invalid_argument("Gru::backward: bad grad shape " +
                                grad_output.shape_string());
  }

  Tensor grad_x({n, steps, input_});
  Tensor gh = grad_output;

  for (std::int64_t t = steps - 1; t >= 0; --t) {
    const Tensor& xt = cached_x_[static_cast<std::size_t>(t)];
    const Tensor& h_prev = cached_h_prev_[static_cast<std::size_t>(t)];
    const Tensor& z = cached_z_[static_cast<std::size_t>(t)];
    const Tensor& r = cached_r_[static_cast<std::size_t>(t)];
    const Tensor& nc = cached_n_[static_cast<std::size_t>(t)];

    Tensor dz_pre({n, hidden_});
    Tensor dn_pre({n, hidden_});
    Tensor gh_prev({n, hidden_});
    for (std::int64_t i = 0; i < gh.size(); ++i) {
      const float g = gh[i];
      dz_pre[i] = g * (h_prev[i] - nc[i]) * z[i] * (1.0f - z[i]);
      dn_pre[i] = g * (1.0f - z[i]) * (1.0f - nc[i] * nc[i]);
      gh_prev[i] = g * z[i];
    }

    // Candidate branch: ñ = tanh(Wn·x + Un·(r ⊙ h_prev) + bn).
    Tensor rh = r;
    rh *= h_prev;
    accumulate_affine_grads(dn_pre, xt, wn_, bn_);
    // dUn += dn_preᵀ · rh done inside a second accumulate (weight matrix Un):
    sgemm_at(hidden_, hidden_, n, dn_pre.data(), rh.data(), 1.0f,
             un_.grad.data());
    // d(rh)[N,H] = dn_pre · Un
    Tensor d_rh({n, hidden_});
    sgemm(n, hidden_, hidden_, dn_pre.data(), un_.value.data(), 0.0f,
          d_rh.data());
    Tensor dr_pre({n, hidden_});
    for (std::int64_t i = 0; i < d_rh.size(); ++i) {
      gh_prev[i] += d_rh[i] * r[i];
      dr_pre[i] = d_rh[i] * h_prev[i] * r[i] * (1.0f - r[i]);
    }

    // Update and reset gates.
    accumulate_affine_grads(dz_pre, xt, wz_, bz_);
    sgemm_at(hidden_, hidden_, n, dz_pre.data(), h_prev.data(), 1.0f,
             uz_.grad.data());
    backprop_affine_input(dz_pre, uz_, gh_prev);

    accumulate_affine_grads(dr_pre, xt, wr_, br_);
    sgemm_at(hidden_, hidden_, n, dr_pre.data(), h_prev.data(), 1.0f,
             ur_.grad.data());
    backprop_affine_input(dr_pre, ur_, gh_prev);

    // Input gradient for this timestep.
    Tensor dxt({n, input_});
    sgemm(n, input_, hidden_, dz_pre.data(), wz_.value.data(), 0.0f,
          dxt.data());
    sgemm(n, input_, hidden_, dr_pre.data(), wr_.value.data(), 1.0f,
          dxt.data());
    sgemm(n, input_, hidden_, dn_pre.data(), wn_.value.data(), 1.0f,
          dxt.data());
    for (std::int64_t i = 0; i < n; ++i) {
      float* dst = grad_x.data() + (i * steps + t) * input_;
      const float* src = dxt.data() + i * input_;
      std::copy(src, src + input_, dst);
    }

    gh = std::move(gh_prev);
  }
  return grad_x;
}

std::vector<Param*> Gru::params() {
  return {&wz_, &uz_, &bz_, &wr_, &ur_, &br_, &wn_, &un_, &bn_};
}

std::vector<const Param*> Gru::params() const {
  return {&wz_, &uz_, &bz_, &wr_, &ur_, &br_, &wn_, &un_, &bn_};
}

}  // namespace sne::nn
