// DCRNN models.
//
// Two variants, mirroring the paper's case study (§3):
//  * DCRNN       — the original heavyweight encoder-decoder of Li et
//                  al. (2018): stacked DCGRU encoder, stacked DCGRU
//                  decoder fed its own predictions, projection head.
//  * PGTDCRNN    — the lightweight PyTorch-Geometric-Temporal variant:
//                  a single DCGRU layer applied stepwise with a
//                  maintained hidden state and a per-step linear
//                  readout, producing a prediction sequence of equal
//                  length to the input.
#pragma once

#include <vector>

#include "nn/dcgru.h"

namespace pgti::nn {

/// Common interface for sequence-to-sequence spatiotemporal models:
/// input [B, T, N, F] -> per-step predictions, each [B, N, output_dim].
class SeqModel : public Module {
 public:
  virtual std::vector<Variable> forward_seq(const Tensor& x) const = 0;
  virtual std::int64_t output_dim() const = 0;
  /// Number of prediction steps produced for an input with T steps.
  virtual std::int64_t output_steps(std::int64_t input_steps) const = 0;
};

struct PgtDcrnnOptions {
  std::int64_t num_nodes = 0;
  std::int64_t input_dim = 2;
  std::int64_t hidden_dim = 32;
  std::int64_t output_dim = 1;
  int max_diffusion_steps = 2;
  std::uint64_t seed = 42;
};

/// Lightweight PGT-DCRNN (paper §3): one DCGRU + stepwise readout.
class PGTDCRNN : public SeqModel {
 public:
  PGTDCRNN(const PgtDcrnnOptions& options, const GraphSupports& supports);

  std::vector<Variable> forward_seq(const Tensor& x) const override;
  std::int64_t output_dim() const override { return options_.output_dim; }
  std::int64_t output_steps(std::int64_t input_steps) const override {
    return input_steps;
  }

 private:
  PgtDcrnnOptions options_;
  Rng rng_;
  DCGRUCell cell_;
  Linear readout_;
};

struct DcrnnOptions {
  std::int64_t num_nodes = 0;
  std::int64_t input_dim = 2;
  std::int64_t hidden_dim = 32;
  std::int64_t output_dim = 1;
  std::int64_t horizon = 12;  ///< decoder steps
  int num_layers = 2;
  int max_diffusion_steps = 2;
  std::uint64_t seed = 42;
};

/// Full encoder-decoder DCRNN (Li et al. 2018), without scheduled
/// sampling (the decoder always consumes its own previous prediction).
class DCRNN : public SeqModel {
 public:
  DCRNN(const DcrnnOptions& options, const GraphSupports& supports);

  std::vector<Variable> forward_seq(const Tensor& x) const override;

  /// Training-time forward with scheduled sampling (Li et al. 2018):
  /// at each decoder step the ground-truth previous target `y`
  /// [B, horizon, N, output_dim] replaces the model's own prediction
  /// with probability `teacher_forcing_prob`.
  std::vector<Variable> forward_seq_scheduled(const Tensor& x, const Tensor& y,
                                              float teacher_forcing_prob,
                                              Rng& rng) const;
  std::int64_t output_dim() const override { return options_.output_dim; }
  std::int64_t output_steps(std::int64_t /*input_steps*/) const override {
    return options_.horizon;
  }

 private:
  struct TeacherForcing {
    const Tensor& y;
    float prob;
    Rng& rng;
  };

  /// The encoder/decoder loop both entry points share; a null `forcing`
  /// decodes free-running.
  std::vector<Variable> unroll(const Tensor& x, const TeacherForcing* forcing) const;

  DcrnnOptions options_;
  Rng rng_;
  std::vector<std::unique_ptr<DCGRUCell>> encoder_;
  std::vector<std::unique_ptr<DCGRUCell>> decoder_;
  Linear projection_;
};

}  // namespace pgti::nn
