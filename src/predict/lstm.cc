#include "src/predict/lstm.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace lyra {
namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

LstmNetwork::LstmNetwork(const LstmOptions& options) : options_(options) {
  LYRA_CHECK_GE(options.layers, 1);
  LYRA_CHECK_GE(options.hidden, 1);
  Rng rng(options.seed);
  const int h = options.hidden;
  for (int l = 0; l < options.layers; ++l) {
    Layer layer;
    layer.input_size = l == 0 ? 1 : h;
    layer.hidden = h;
    const double scale_w = 1.0 / std::sqrt(static_cast<double>(layer.input_size));
    const double scale_u = 1.0 / std::sqrt(static_cast<double>(h));
    layer.w.resize(static_cast<std::size_t>(4 * h) * layer.input_size);
    layer.u.resize(static_cast<std::size_t>(4 * h) * h);
    layer.b.assign(static_cast<std::size_t>(4 * h), 0.0);
    for (double& v : layer.w) {
      v = rng.NextGaussian() * scale_w;
    }
    for (double& v : layer.u) {
      v = rng.NextGaussian() * scale_u;
    }
    // Forget-gate bias starts positive: standard trick for gradient flow.
    for (int i = h; i < 2 * h; ++i) {
      layer.b[static_cast<std::size_t>(i)] = 1.0;
    }
    layers_.push_back(std::move(layer));
  }
  head_w_.resize(static_cast<std::size_t>(h));
  for (double& v : head_w_) {
    v = rng.NextGaussian() / std::sqrt(static_cast<double>(h));
  }

  RebuildParamPtrs();
  grads_.assign(param_ptrs_.size(), 0.0);
  adam_m_.assign(param_ptrs_.size(), 0.0);
  adam_v_.assign(param_ptrs_.size(), 0.0);
}

void LstmNetwork::RebuildParamPtrs() {
  param_ptrs_.clear();
  for (Layer& layer : layers_) {
    for (double& v : layer.w) {
      param_ptrs_.push_back(&v);
    }
    for (double& v : layer.u) {
      param_ptrs_.push_back(&v);
    }
    for (double& v : layer.b) {
      param_ptrs_.push_back(&v);
    }
  }
  for (double& v : head_w_) {
    param_ptrs_.push_back(&v);
  }
  param_ptrs_.push_back(&head_b_);
}

LstmNetwork::LstmNetwork(const LstmNetwork& other)
    : options_(other.options_),
      layers_(other.layers_),
      head_w_(other.head_w_),
      head_b_(other.head_b_),
      grads_(other.grads_),
      adam_m_(other.adam_m_),
      adam_v_(other.adam_v_),
      adam_t_(other.adam_t_) {
  RebuildParamPtrs();
}

LstmNetwork& LstmNetwork::operator=(const LstmNetwork& other) {
  if (this == &other) {
    return *this;
  }
  options_ = other.options_;
  layers_ = other.layers_;
  head_w_ = other.head_w_;
  head_b_ = other.head_b_;
  grads_ = other.grads_;
  adam_m_ = other.adam_m_;
  adam_v_ = other.adam_v_;
  adam_t_ = other.adam_t_;
  RebuildParamPtrs();
  return *this;
}

int LstmNetwork::num_parameters() const { return static_cast<int>(param_ptrs_.size()); }

std::uint64_t LstmNetwork::ParameterCount(std::uint64_t hidden, std::uint64_t layers) {
  // Per layer: w [4H x input], u [4H x H], b [4H]; the first layer's input is
  // the scalar sample, the others' is the layer below. Then the H + 1 head.
  const std::uint64_t gates = 4 * hidden;
  const std::uint64_t first = gates + gates * hidden + gates;
  const std::uint64_t deeper = 2 * gates * hidden + gates;
  return first + (layers - 1) * deeper + hidden + 1;
}

std::vector<double> LstmNetwork::ExportParameters() const {
  std::vector<double> out(param_ptrs_.size());
  for (std::size_t i = 0; i < param_ptrs_.size(); ++i) {
    out[i] = *param_ptrs_[i];
  }
  return out;
}

void LstmNetwork::ImportParameters(const std::vector<double>& params) {
  LYRA_CHECK_EQ(params.size(), param_ptrs_.size());
  for (std::size_t i = 0; i < param_ptrs_.size(); ++i) {
    *param_ptrs_[i] = params[i];
  }
}

double LstmNetwork::RunForward(const std::vector<double>& window,
                               std::vector<std::vector<StepCache>>* cache) {
  const int h = options_.hidden;
  const auto steps = window.size();
  std::vector<std::vector<double>> hidden(layers_.size(),
                                          std::vector<double>(static_cast<std::size_t>(h), 0.0));
  std::vector<std::vector<double>> cell = hidden;
  if (cache != nullptr) {
    cache->assign(layers_.size(), std::vector<StepCache>(steps));
  }

  for (std::size_t t = 0; t < steps; ++t) {
    std::vector<double> x{window[t]};
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      Layer& layer = layers_[l];
      const auto in = static_cast<std::size_t>(layer.input_size);
      std::vector<double> gates(static_cast<std::size_t>(4 * h));
      for (int r = 0; r < 4 * h; ++r) {
        double z = layer.b[static_cast<std::size_t>(r)];
        for (std::size_t i = 0; i < in; ++i) {
          z += layer.w[static_cast<std::size_t>(r) * in + i] * x[i];
        }
        for (int i = 0; i < h; ++i) {
          z += layer.u[static_cast<std::size_t>(r * h + i)] *
               hidden[l][static_cast<std::size_t>(i)];
        }
        gates[static_cast<std::size_t>(r)] = z;
      }
      StepCache* step = cache != nullptr ? &(*cache)[l][t] : nullptr;
      if (step != nullptr) {
        step->x = x;
        step->h_prev = hidden[l];
        step->c_prev = cell[l];
      }
      std::vector<double> new_h(static_cast<std::size_t>(h));
      std::vector<double> new_c(static_cast<std::size_t>(h));
      std::vector<double> tanh_c(static_cast<std::size_t>(h));
      for (int i = 0; i < h; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        const double gi = Sigmoid(gates[ui]);
        const double gf = Sigmoid(gates[static_cast<std::size_t>(h + i)]);
        const double gg = std::tanh(gates[static_cast<std::size_t>(2 * h + i)]);
        const double go = Sigmoid(gates[static_cast<std::size_t>(3 * h + i)]);
        gates[ui] = gi;
        gates[static_cast<std::size_t>(h + i)] = gf;
        gates[static_cast<std::size_t>(2 * h + i)] = gg;
        gates[static_cast<std::size_t>(3 * h + i)] = go;
        new_c[ui] = gf * cell[l][ui] + gi * gg;
        tanh_c[ui] = std::tanh(new_c[ui]);
        new_h[ui] = go * tanh_c[ui];
      }
      if (step != nullptr) {
        step->gates = gates;
        step->c = new_c;
        step->tanh_c = tanh_c;
        step->h = new_h;
      }
      hidden[l] = new_h;
      cell[l] = std::move(new_c);
      x = hidden[l];
    }
  }

  double out = head_b_;
  for (int i = 0; i < h; ++i) {
    out += head_w_[static_cast<std::size_t>(i)] *
           hidden.back()[static_cast<std::size_t>(i)];
  }
  return out;
}

double LstmNetwork::Forward(const std::vector<double>& window) {
  return RunForward(window, nullptr);
}

void LstmNetwork::Backward(const std::vector<std::vector<StepCache>>& cache,
                           double d_output) {
  const int h = options_.hidden;
  const auto steps = cache[0].size();

  // Gradient buffers aligned with param_ptrs_ layout.
  std::size_t offset = 0;
  std::vector<std::size_t> layer_offsets;
  for (const Layer& layer : layers_) {
    layer_offsets.push_back(offset);
    offset += layer.w.size() + layer.u.size() + layer.b.size();
  }
  const std::size_t head_offset = offset;

  // Head gradient and the seed gradient into the top layer's final h. Note
  // Backward *accumulates* into grads_; callers zero via ZeroGradients.
  const std::vector<double>& top_h = cache.back()[steps - 1].h;
  for (int i = 0; i < h; ++i) {
    grads_[head_offset + static_cast<std::size_t>(i)] +=
        d_output * top_h[static_cast<std::size_t>(i)];
  }
  grads_[head_offset + static_cast<std::size_t>(h)] += d_output;

  // d_h[l][t] contributions flowing down the stack: process layers top-down,
  // accumulating the gradient each layer passes to the one below via x.
  std::vector<std::vector<std::vector<double>>> dx_from_above(
      layers_.size(),
      std::vector<std::vector<double>>(steps));

  for (std::size_t l = layers_.size(); l-- > 0;) {
    const Layer& layer = layers_[l];
    const auto in = static_cast<std::size_t>(layer.input_size);
    const std::size_t base = layer_offsets[l];
    const std::size_t w_size = layer.w.size();
    const std::size_t u_size = layer.u.size();

    std::vector<double> dh(static_cast<std::size_t>(h), 0.0);
    std::vector<double> dc(static_cast<std::size_t>(h), 0.0);
    // Seed from the head for the top layer's last step.
    if (l + 1 == layers_.size()) {
      for (int i = 0; i < h; ++i) {
        dh[static_cast<std::size_t>(i)] = d_output * head_w_[static_cast<std::size_t>(i)];
      }
    }

    for (std::size_t t = steps; t-- > 0;) {
      const StepCache& step = cache[l][t];
      // Add gradient arriving from the layer above at this timestep.
      if (l + 1 < layers_.size() && !dx_from_above[l][t].empty()) {
        for (int i = 0; i < h; ++i) {
          dh[static_cast<std::size_t>(i)] += dx_from_above[l][t][static_cast<std::size_t>(i)];
        }
      }

      std::vector<double> dgates(static_cast<std::size_t>(4 * h));
      for (int i = 0; i < h; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        const double gi = step.gates[ui];
        const double gf = step.gates[static_cast<std::size_t>(h + i)];
        const double gg = step.gates[static_cast<std::size_t>(2 * h + i)];
        const double go = step.gates[static_cast<std::size_t>(3 * h + i)];
        const double tc = step.tanh_c[ui];
        const double dct = dc[ui] + dh[ui] * go * (1.0 - tc * tc);
        dgates[ui] = dct * gg * gi * (1.0 - gi);                                  // input
        dgates[static_cast<std::size_t>(h + i)] =
            dct * step.c_prev[ui] * gf * (1.0 - gf);                              // forget
        dgates[static_cast<std::size_t>(2 * h + i)] = dct * gi * (1.0 - gg * gg); // cell
        dgates[static_cast<std::size_t>(3 * h + i)] = dh[ui] * tc * go * (1.0 - go);
        dc[ui] = dct * gf;  // carries to t-1
      }

      // Parameter gradients and gradients to h_prev / x.
      std::vector<double> dh_prev(static_cast<std::size_t>(h), 0.0);
      std::vector<double> dx(in, 0.0);
      for (int r = 0; r < 4 * h; ++r) {
        const double dz = dgates[static_cast<std::size_t>(r)];
        if (dz == 0.0) {
          continue;
        }
        for (std::size_t i = 0; i < in; ++i) {
          grads_[base + static_cast<std::size_t>(r) * in + i] += dz * step.x[i];
          dx[i] += dz * layer.w[static_cast<std::size_t>(r) * in + i];
        }
        for (int i = 0; i < h; ++i) {
          grads_[base + w_size + static_cast<std::size_t>(r * h + i)] +=
              dz * step.h_prev[static_cast<std::size_t>(i)];
          dh_prev[static_cast<std::size_t>(i)] +=
              dz * layer.u[static_cast<std::size_t>(r * h + i)];
        }
        grads_[base + w_size + u_size + static_cast<std::size_t>(r)] += dz;
      }
      if (l > 0) {
        dx_from_above[l - 1][t] = std::move(dx);
      }
      dh = std::move(dh_prev);
      // dc already updated in the gate loop.
    }
  }
}

void LstmNetwork::AdamUpdate() {
  ++adam_t_;
  const double b1 = options_.adam_beta1;
  const double b2 = options_.adam_beta2;
  const double correction1 = 1.0 - std::pow(b1, static_cast<double>(adam_t_));
  const double correction2 = 1.0 - std::pow(b2, static_cast<double>(adam_t_));
  for (std::size_t i = 0; i < param_ptrs_.size(); ++i) {
    const double g = grads_[i];
    adam_m_[i] = b1 * adam_m_[i] + (1.0 - b1) * g;
    adam_v_[i] = b2 * adam_v_[i] + (1.0 - b2) * g * g;
    const double m_hat = adam_m_[i] / correction1;
    const double v_hat = adam_v_[i] / correction2;
    *param_ptrs_[i] -= options_.learning_rate * m_hat / (std::sqrt(v_hat) + options_.adam_eps);
  }
}

double LstmNetwork::TrainStep(const std::vector<double>& window, double target) {
  const double err = ComputeLossAndGradient(window, target);
  AdamUpdate();
  return err;
}

void LstmNetwork::ZeroGradients() { std::fill(grads_.begin(), grads_.end(), 0.0); }

double LstmNetwork::AccumulateGradient(const std::vector<double>& window,
                                       double d_output) {
  std::vector<std::vector<StepCache>> cache;
  const double prediction = RunForward(window, &cache);
  Backward(cache, d_output);
  return prediction;
}

double LstmNetwork::ComputeLossAndGradient(const std::vector<double>& window,
                                           double target) {
  ZeroGradients();
  std::vector<std::vector<StepCache>> cache;
  const double prediction = RunForward(window, &cache);
  const double err = prediction - target;
  Backward(cache, 2.0 * err);
  return err * err;
}

void LstmNetwork::ApplyAdam() { AdamUpdate(); }

LstmPredictor::LstmPredictor(LstmOptions options)
    : options_(options), network_(options), rng_(options.seed ^ 0xabcdef) {}

void LstmPredictor::Observe(double value) {
  history_.push_back(value);
  const auto window = static_cast<std::size_t>(options_.window);
  if (history_.size() <= window) {
    return;
  }
  // Train on random windows drawn from history (favoring recent data), plus
  // always the newest window, so the model tracks regime changes.
  const std::size_t max_start = history_.size() - window - 1;
  for (int s = 0; s < options_.train_steps_per_observe; ++s) {
    std::size_t start;
    if (s == 0) {
      start = max_start;
    } else {
      // Sample from the most recent 3 days' worth of windows.
      const std::size_t lookback = std::min<std::size_t>(max_start, 3 * 288);
      start = max_start - static_cast<std::size_t>(
                              rng_.UniformInt(0, static_cast<std::int64_t>(lookback)));
    }
    std::vector<double> input(history_.begin() + static_cast<std::ptrdiff_t>(start),
                              history_.begin() + static_cast<std::ptrdiff_t>(start + window));
    const double loss = network_.TrainStep(input, history_[start + window]);
    if (s == 0) {
      recent_losses_.push_back(loss);
      if (recent_losses_.size() > 1440) {
        recent_losses_.erase(recent_losses_.begin());
      }
    }
  }
}

double LstmPredictor::PredictNext() {
  const auto window = static_cast<std::size_t>(options_.window);
  if (history_.empty()) {
    return 0.0;
  }
  if (history_.size() < window ||
      history_.size() < static_cast<std::size_t>(options_.warmup_samples)) {
    return history_.back();
  }
  std::vector<double> input(history_.end() - static_cast<std::ptrdiff_t>(window),
                            history_.end());
  return std::clamp(network_.Forward(input), 0.0, 1.0);
}

double LstmPredictor::recent_loss() const {
  if (recent_losses_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double l : recent_losses_) {
    sum += l;
  }
  return sum / static_cast<double>(recent_losses_.size());
}

}  // namespace lyra
