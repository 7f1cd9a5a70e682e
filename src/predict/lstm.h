// A small LSTM time-series model, from scratch (§6).
//
// Matches the paper's predictor: window size 10, two hidden LSTM layers, a
// linear head, trained online with Adam on MSE loss. Input and output are
// scalar usage fractions in [0, 1]. The implementation is plain
// std::vector math — no external ML dependency — with full backpropagation
// through time over the window.
#ifndef SRC_PREDICT_LSTM_H_
#define SRC_PREDICT_LSTM_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/predict/predictor.h"

namespace lyra {

struct LstmOptions {
  int window = 10;
  int hidden = 16;
  int layers = 2;
  double learning_rate = 0.01;  // Adam step size
  double adam_beta1 = 0.9;
  double adam_beta2 = 0.999;
  double adam_eps = 1e-8;
  // Gradient steps performed per observed sample (on random past windows).
  int train_steps_per_observe = 4;
  // Before this many samples the predictor falls back to the last value.
  int warmup_samples = 64;
  std::uint64_t seed = 17;
};

// One stacked-LSTM network with a linear output head. Exposed separately from
// the predictor so tests can train it on known functions.
//
// Besides the self-contained TrainStep (MSE + Adam, used by the usage
// predictor), the network exposes its gradient machinery piecewise —
// ZeroGradients / AccumulateGradient / ApplyAdam — so callers with other
// losses (the REINFORCE policy gradient in src/rl/) can drive the same
// backprop-through-time cells with an arbitrary output gradient, and its
// flat parameter vector, so policies can be checkpointed to disk.
class LstmNetwork {
 public:
  explicit LstmNetwork(const LstmOptions& options);

  // The flat parameter view (param_ptrs_) points into the layer vectors, so
  // copies must rebuild it against their own storage.
  LstmNetwork(const LstmNetwork& other);
  LstmNetwork& operator=(const LstmNetwork& other);

  // Runs the window through the network; returns the scalar prediction.
  double Forward(const std::vector<double>& window);

  // One training step (forward, BPTT, Adam update) on (window -> target).
  // Returns the squared-error loss before the update.
  double TrainStep(const std::vector<double>& window, double target);

  // --- Piecewise gradient interface ----------------------------------------

  // Clears the accumulated gradient buffer.
  void ZeroGradients();

  // Forward + BPTT with the given loss gradient w.r.t. the scalar output,
  // *added* into the gradient buffer (call ZeroGradients to start a batch).
  // Returns the forward output.
  double AccumulateGradient(const std::vector<double>& window, double d_output);

  // One MSE forward/backward into a freshly zeroed buffer, without an
  // optimizer step. Returns the squared error; used by the finite-difference
  // gradient check in predictor_test.
  double ComputeLossAndGradient(const std::vector<double>& window, double target);

  // Applies one Adam step on the accumulated gradients.
  void ApplyAdam();

  // --- Flat parameter access (checkpointing, gradient checks) --------------

  int num_parameters() const;
  // num_parameters() of a network with this shape, in 64 bits and without
  // constructing it (decoders size-check untrusted shapes with it first).
  static std::uint64_t ParameterCount(std::uint64_t hidden, std::uint64_t layers);
  double parameter(int i) const { return *param_ptrs_[static_cast<std::size_t>(i)]; }
  void set_parameter(int i, double v) { *param_ptrs_[static_cast<std::size_t>(i)] = v; }
  const std::vector<double>& gradients() const { return grads_; }
  std::vector<double> ExportParameters() const;
  // The vector must have exactly num_parameters() entries.
  void ImportParameters(const std::vector<double>& params);

  const LstmOptions& options() const { return options_; }

 private:
  struct Layer {
    int input_size = 0;
    int hidden = 0;
    // Gate order within the 4H rows: input, forget, cell, output.
    std::vector<double> w;  // [4H x input_size]
    std::vector<double> u;  // [4H x H]
    std::vector<double> b;  // [4H]
  };

  // Per-timestep activations recorded for backprop.
  struct StepCache {
    std::vector<double> x;        // layer input
    std::vector<double> gates;    // 4H pre-activation -> post-activation
    std::vector<double> c;        // cell state
    std::vector<double> tanh_c;   // tanh(c)
    std::vector<double> h;        // hidden state
    std::vector<double> c_prev;
    std::vector<double> h_prev;
  };

  double RunForward(const std::vector<double>& window,
                    std::vector<std::vector<StepCache>>* cache);
  void Backward(const std::vector<std::vector<StepCache>>& cache, double d_output);
  void AdamUpdate();
  void RebuildParamPtrs();

  LstmOptions options_;
  std::vector<Layer> layers_;
  std::vector<double> head_w_;  // [H]
  double head_b_ = 0.0;

  // Flattened gradient / Adam state aligned with a flat parameter view.
  std::vector<double*> param_ptrs_;
  std::vector<double> grads_;
  std::vector<double> adam_m_;
  std::vector<double> adam_v_;
  std::int64_t adam_t_ = 0;
};

class LstmPredictor : public UsagePredictor {
 public:
  explicit LstmPredictor(LstmOptions options = {});

  const char* name() const override { return "lstm"; }
  void Observe(double value) override;
  double PredictNext() override;

  // Mean training loss over the most recent observations (diagnostics; the
  // paper reports 0.00048 average MSE over 1440 points).
  double recent_loss() const;

 private:
  LstmOptions options_;
  LstmNetwork network_;
  Rng rng_;
  std::vector<double> history_;
  std::vector<double> recent_losses_;
};

}  // namespace lyra

#endif  // SRC_PREDICT_LSTM_H_
