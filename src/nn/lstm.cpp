#include "nn/lstm.h"

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

// y[N,H] (+)= x[N,D] · Wᵀ (W is [H,D]).
void affine(const Tensor& x, const Param& w, Tensor& y) {
  sgemm_bt(x.extent(0), w.value.extent(0), x.extent(1), x.data(),
           w.value.data(), 1.0f, y.data());
}

// dW += gᵀ·x, db += colsum(g), and out[N, in] += g·W.
void backprop_gate(const Tensor& g_pre, const Tensor& xt,
                   const Tensor& h_prev, Param& w, Param& u, Param& b,
                   Tensor& gh_prev, Tensor& dxt) {
  sgemm_at(w.value.extent(0), w.value.extent(1), g_pre.extent(0),
           g_pre.data(), xt.data(), 1.0f, w.grad.data());
  sgemm_at(u.value.extent(0), u.value.extent(1), g_pre.extent(0),
           g_pre.data(), h_prev.data(), 1.0f, u.grad.data());
  const std::int64_t n = g_pre.extent(0);
  const std::int64_t h = g_pre.extent(1);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = g_pre.data() + i * h;
    for (std::int64_t j = 0; j < h; ++j) b.grad[j] += row[j];
  }
  sgemm(n, u.value.extent(1), h, g_pre.data(), u.value.data(), 1.0f,
        gh_prev.data());
  sgemm(n, w.value.extent(1), h, g_pre.data(), w.value.data(), 1.0f,
        dxt.data());
}

}  // namespace

Lstm::Lstm(std::int64_t input_size, std::int64_t hidden_size, Rng& rng,
           std::string name)
    : input_(input_size),
      hidden_(hidden_size),
      wi_(name + ".wi", glorot(hidden_size, input_size, rng)),
      ui_(name + ".ui", glorot(hidden_size, hidden_size, rng)),
      bi_(name + ".bi", Tensor({hidden_size})),
      wf_(name + ".wf", glorot(hidden_size, input_size, rng)),
      uf_(name + ".uf", glorot(hidden_size, hidden_size, rng)),
      bf_(name + ".bf", Tensor({hidden_size}, 1.0f)),
      wo_(name + ".wo", glorot(hidden_size, input_size, rng)),
      uo_(name + ".uo", glorot(hidden_size, hidden_size, rng)),
      bo_(name + ".bo", Tensor({hidden_size})),
      wg_(name + ".wg", glorot(hidden_size, input_size, rng)),
      ug_(name + ".ug", glorot(hidden_size, hidden_size, rng)),
      bg_(name + ".bg", Tensor({hidden_size})) {
  if (input_size <= 0 || hidden_size <= 0) {
    throw std::invalid_argument("Lstm: sizes must be positive");
  }
}

Tensor Lstm::forward(const Tensor& x) {
  if (x.rank() != 3 || x.extent(2) != input_) {
    throw std::invalid_argument("Lstm::forward: expected [N, T, " +
                                std::to_string(input_) + "], got " +
                                x.shape_string());
  }
  const std::int64_t n = x.extent(0);
  const std::int64_t steps = x.extent(1);

  cached_x_.clear();
  cached_h_prev_.clear();
  cached_c_prev_.clear();
  cached_i_.clear();
  cached_f_.clear();
  cached_o_.clear();
  cached_g_.clear();
  cached_c_.clear();

  Tensor h({n, hidden_});
  Tensor c({n, hidden_});
  for (std::int64_t t = 0; t < steps; ++t) {
    Tensor xt({n, input_});
    for (std::int64_t i = 0; i < n; ++i) {
      const float* src = x.data() + (i * steps + t) * input_;
      std::copy(src, src + input_, xt.data() + i * input_);
    }

    auto gate = [&](const Param& w, const Param& u, const Param& b) {
      Tensor z({n, hidden_});
      affine(xt, w, z);
      affine(h, u, z);
      add_bias(z, b.value);
      return z;
    };
    Tensor i_gate = gate(wi_, ui_, bi_);
    sigmoid_inplace(i_gate);
    Tensor f_gate = gate(wf_, uf_, bf_);
    sigmoid_inplace(f_gate);
    Tensor o_gate = gate(wo_, uo_, bo_);
    sigmoid_inplace(o_gate);
    Tensor g_cand = gate(wg_, ug_, bg_);
    tanh_inplace(g_cand);

    Tensor c_new({n, hidden_});
    for (std::int64_t k = 0; k < c_new.size(); ++k) {
      c_new[k] = f_gate[k] * c[k] + i_gate[k] * g_cand[k];
    }
    Tensor h_new({n, hidden_});
    for (std::int64_t k = 0; k < h_new.size(); ++k) {
      h_new[k] = o_gate[k] * std::tanh(c_new[k]);
    }

    cached_x_.push_back(std::move(xt));
    cached_h_prev_.push_back(h);
    cached_c_prev_.push_back(c);
    cached_i_.push_back(std::move(i_gate));
    cached_f_.push_back(std::move(f_gate));
    cached_o_.push_back(std::move(o_gate));
    cached_g_.push_back(std::move(g_cand));
    cached_c_.push_back(c_new);

    h = std::move(h_new);
    c = std::move(c_new);
  }
  return h;
}

void Lstm::infer_into(ConstTensorView x, Tensor& out) const {
  if (x.rank() != 3 || x.extent(2) != input_) {
    throw std::invalid_argument("Lstm::infer_into: expected [N, T, " +
                                std::to_string(input_) + "], got " +
                                x.shape_string());
  }
  const std::int64_t n = x.extent(0);
  const std::int64_t steps = x.extent(1);

  // Per-thread, grow-only scratch instead of the per-timestep caches.
  thread_local Tensor xt, i_gate, f_gate, o_gate, g_cand, c;
  xt.resize({n, input_});
  i_gate.resize({n, hidden_});
  f_gate.resize({n, hidden_});
  o_gate.resize({n, hidden_});
  g_cand.resize({n, hidden_});
  c.resize({n, hidden_});
  c.zero();

  out.resize({n, hidden_});
  out.zero();  // h_0 = 0
  for (std::int64_t t = 0; t < steps; ++t) {
    for (std::int64_t i = 0; i < n; ++i) {
      const float* src = x.data() + (i * steps + t) * input_;
      std::copy(src, src + input_, xt.data() + i * input_);
    }

    auto gate = [&](const Param& w, const Param& u, const Param& b,
                    Tensor& z) {
      z.zero();
      affine(xt, w, z);
      affine(out, u, z);
      add_bias(z, b.value);
    };
    gate(wi_, ui_, bi_, i_gate);
    sigmoid_inplace(i_gate);
    gate(wf_, uf_, bf_, f_gate);
    sigmoid_inplace(f_gate);
    gate(wo_, uo_, bo_, o_gate);
    sigmoid_inplace(o_gate);
    gate(wg_, ug_, bg_, g_cand);
    tanh_inplace(g_cand);

    for (std::int64_t k = 0; k < c.size(); ++k) {
      c[k] = f_gate[k] * c[k] + i_gate[k] * g_cand[k];
    }
    for (std::int64_t k = 0; k < out.size(); ++k) {
      out[k] = o_gate[k] * std::tanh(c[k]);
    }
  }
}

Shape Lstm::infer_shape(const Shape& in) const {
  if (in.size() != 3 || in[2] != input_) {
    throw std::invalid_argument("Lstm::infer_shape: bad input shape");
  }
  return {in[0], hidden_};
}

Tensor Lstm::backward(const Tensor& grad_output) {
  if (cached_x_.empty()) {
    throw std::logic_error("Lstm::backward before forward");
  }
  const auto steps = static_cast<std::int64_t>(cached_x_.size());
  const std::int64_t n = cached_x_[0].extent(0);
  if (grad_output.rank() != 2 || grad_output.extent(0) != n ||
      grad_output.extent(1) != hidden_) {
    throw std::invalid_argument("Lstm::backward: bad grad shape " +
                                grad_output.shape_string());
  }

  Tensor grad_x({n, steps, input_});
  Tensor gh = grad_output;
  Tensor gc({n, hidden_});  // carried cell-state gradient

  for (std::int64_t t = steps - 1; t >= 0; --t) {
    const auto ts = static_cast<std::size_t>(t);
    const Tensor& xt = cached_x_[ts];
    const Tensor& h_prev = cached_h_prev_[ts];
    const Tensor& c_prev = cached_c_prev_[ts];
    const Tensor& ig = cached_i_[ts];
    const Tensor& fg = cached_f_[ts];
    const Tensor& og = cached_o_[ts];
    const Tensor& gg = cached_g_[ts];
    const Tensor& ct = cached_c_[ts];

    Tensor di_pre({n, hidden_});
    Tensor df_pre({n, hidden_});
    Tensor do_pre({n, hidden_});
    Tensor dg_pre({n, hidden_});
    Tensor gc_prev({n, hidden_});
    for (std::int64_t k = 0; k < gh.size(); ++k) {
      const float tanh_c = std::tanh(ct[k]);
      // Total cell gradient: carried gc plus h's path through tanh(c).
      const float gct = gc[k] + gh[k] * og[k] * (1.0f - tanh_c * tanh_c);
      do_pre[k] = gh[k] * tanh_c * og[k] * (1.0f - og[k]);
      di_pre[k] = gct * gg[k] * ig[k] * (1.0f - ig[k]);
      df_pre[k] = gct * c_prev[k] * fg[k] * (1.0f - fg[k]);
      dg_pre[k] = gct * ig[k] * (1.0f - gg[k] * gg[k]);
      gc_prev[k] = gct * fg[k];
    }

    Tensor gh_prev({n, hidden_});
    Tensor dxt({n, input_});
    backprop_gate(di_pre, xt, h_prev, wi_, ui_, bi_, gh_prev, dxt);
    backprop_gate(df_pre, xt, h_prev, wf_, uf_, bf_, gh_prev, dxt);
    backprop_gate(do_pre, xt, h_prev, wo_, uo_, bo_, gh_prev, dxt);
    backprop_gate(dg_pre, xt, h_prev, wg_, ug_, bg_, gh_prev, dxt);

    for (std::int64_t i = 0; i < n; ++i) {
      float* dst = grad_x.data() + (i * steps + t) * input_;
      const float* src = dxt.data() + i * input_;
      std::copy(src, src + input_, dst);
    }

    gh = std::move(gh_prev);
    gc = std::move(gc_prev);
  }
  return grad_x;
}

std::vector<Param*> Lstm::params() {
  return {&wi_, &ui_, &bi_, &wf_, &uf_, &bf_,
          &wo_, &uo_, &bo_, &wg_, &ug_, &bg_};
}

std::vector<const Param*> Lstm::params() const {
  return {&wi_, &ui_, &bi_, &wf_, &uf_, &bf_,
          &wo_, &uo_, &bo_, &wg_, &ug_, &bg_};
}

}  // namespace sne::nn
