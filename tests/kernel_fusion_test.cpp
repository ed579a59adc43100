// Parity and gradient coverage for the fused/blocked kernel layer
// (DESIGN.md §14).  Every fused op must be BIT-IDENTICAL to its
// reference composition or to the seed kernel kept in pgti_reference
// — not merely close — because the repo's determinism suites compare
// losses across world sizes and strategies with exact equality.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "graph/csr.h"
#include "graph/spatial.h"
#include "nn/dcgru.h"
#include "reference/reference.h"
#include "runtime/memory_tracker.h"
#include "tensor/tensor_ops.h"

namespace pgti {
namespace {

constexpr double kTol = 2e-2;  // float32 central differences

Tensor randn(const Shape& shape, std::uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  return Tensor::randn(shape, rng, scale);
}

Variable leaf(const Shape& shape, std::uint64_t seed, float scale = 1.0f) {
  return Variable(randn(shape, seed, scale), /*requires_grad=*/true);
}

void expect_bits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  const Tensor ca = a.contiguous();
  const Tensor cb = b.contiguous();
  EXPECT_EQ(std::memcmp(ca.data(), cb.data(),
                        sizeof(float) * static_cast<std::size_t>(ca.numel())),
            0);
}

Csr random_csr(std::int64_t n, std::uint64_t seed) {
  SensorNetworkOptions opt;
  opt.num_nodes = n;
  opt.k_neighbors = 3;
  opt.seed = seed;
  return build_sensor_network(opt).adjacency;
}

// ------------------------------------------------- blocked matmul family

TEST(BlockedMatmul, BitIdenticalToReference) {
  // Shapes chosen to hit full register tiles, ragged row tails, ragged
  // column remainders, and tiny degenerate sizes.
  const std::vector<Shape> cases = {
      {64, 64}, {256, 256}, {5, 7}, {130, 37}, {1, 1}, {3, 200}, {67, 96}};
  for (const Shape& mk : cases) {
    for (std::int64_t n : {1LL, 9LL, 64LL, 130LL}) {
      Tensor a = randn({mk[0], mk[1]}, 11 + static_cast<std::uint64_t>(n));
      Tensor b = randn({mk[1], n}, 13 + static_cast<std::uint64_t>(n));
      expect_bits(ops::matmul(a, b), ops::matmul_reference(a, b));
    }
  }
}

TEST(BlockedMatmul, ReferenceZeroSkipParityWithZeros) {
  // The reference kernel skips aik == 0 terms; the blocked kernel adds
  // 0 * b[k, j].  For finite inputs both accumulate identical bits.
  Tensor a = randn({33, 17}, 3);
  float* pa = a.data();
  for (std::int64_t i = 0; i < a.numel(); i += 3) pa[i] = 0.0f;
  Tensor b = randn({17, 70}, 4);
  expect_bits(ops::matmul(a, b), ops::matmul_reference(a, b));
}

TEST(BlockedMatmul, TnBitIdenticalToScalarLoop) {
  const std::int64_t K = 37, M = 30, N = 70;
  Tensor a = randn({K, M}, 5);
  Tensor b = randn({K, N}, 6);
  Tensor want = Tensor::zeros({M, N});
  for (std::int64_t m = 0; m < M; ++m) {
    for (std::int64_t n = 0; n < N; ++n) {
      float acc = 0.0f;
      for (std::int64_t k = 0; k < K; ++k) {
        acc += a.data()[k * M + m] * b.data()[k * N + n];
      }
      want.data()[m * N + n] = acc;
    }
  }
  expect_bits(ops::matmul_tn(a, b), want);
}

TEST(BlockedMatmul, NtBitIdenticalToScalarLoop) {
  const std::int64_t M = 30, K = 41, N = 27;
  Tensor a = randn({M, K}, 7);
  Tensor b = randn({N, K}, 8);
  Tensor want = Tensor::zeros({M, N});
  for (std::int64_t m = 0; m < M; ++m) {
    for (std::int64_t n = 0; n < N; ++n) {
      float acc = 0.0f;
      for (std::int64_t k = 0; k < K; ++k) {
        acc += a.data()[m * K + k] * b.data()[n * K + k];
      }
      want.data()[m * N + n] = acc;
    }
  }
  expect_bits(ops::matmul_nt(a, b), want);
}

TEST(FusedMatmul, BiasActMatchesUnfusedComposition) {
  Tensor a = randn({45, 19}, 9);
  Tensor b = randn({19, 33}, 10);
  Tensor bias = randn({33}, 11);
  for (ops::Act act : {ops::Act::kIdentity, ops::Act::kSigmoid, ops::Act::kTanh,
                       ops::Act::kRelu}) {
    Tensor unfused = ops::add_bias(ops::matmul(a, b), bias);
    ops::apply_act_(unfused, act);
    expect_bits(ops::matmul_bias_act(a, b, bias, act), unfused);
  }
}

// ------------------------------------- micro-kernel panel classes, tails

constexpr ops::Act kActs[] = {ops::Act::kIdentity, ops::Act::kSigmoid, ops::Act::kTanh,
                              ops::Act::kRelu};

// Every op of the matmul family against its oracle at one M x K x N:
// matmul and the fused bias/activation forward compute [M, N] with
// inner dimension K; matmul_tn, matmul_nt and the fused backward
// epilogue take the backward shapes of that forward.
void expect_family_parity(std::int64_t m, std::int64_t k, std::int64_t n, std::uint64_t seed) {
  SCOPED_TRACE("M=" + std::to_string(m) + " K=" + std::to_string(k) + " N=" + std::to_string(n));
  const Tensor a = randn({m, k}, seed);
  const Tensor b = randn({k, n}, seed + 1);
  const Tensor bias = randn({n}, seed + 2);
  const Tensor g = randn({m, n}, seed + 3);
  expect_bits(ops::matmul(a, b), ops::matmul_reference(a, b));
  for (ops::Act act : kActs) {
    SCOPED_TRACE("act " + std::to_string(static_cast<int>(act)));
    // The unfused composition over the seed kernel.
    Tensor want = ops::add_bias(ops::matmul_reference(a, b), bias);
    ops::apply_act_(want, act);
    expect_bits(ops::matmul_bias_act(a, b, bias, act), want);
  }
  // dW = A^T g: [K, N] with inner dimension M.
  expect_bits(ops::matmul_tn(a, g), ops::matmul_tn_reference(a, g));
  // dA = g W^T: [M, K] with inner dimension N, plain and through the
  // fused backward epilogue (both dA and the materialized dz).
  expect_bits(ops::matmul_nt(g, b), ops::matmul_nt_reference(g, b));
  Tensor y = randn({m, n}, seed + 4);
  ops::apply_act_(y, ops::Act::kSigmoid);
  for (ops::Act act : kActs) {
    SCOPED_TRACE("backward act " + std::to_string(static_cast<int>(act)));
    Tensor dz = Tensor::empty({m, n});
    const Tensor da = ops::matmul_nt_act_backward(g, y, act, b, dz);
    const Tensor dz_want = ops::act_backward(g, y, act);
    expect_bits(dz, dz_want);
    expect_bits(da, ops::matmul_nt_reference(dz_want, b));
  }
}

TEST(MicroKernel, EveryPanelClassAndTailMatchesOracles) {
  // N covers the row-vectorized path (< 16), each panel width alone
  // (16, 32, 64), each followed by a ragged remainder (the overlapping
  // 16-wide panel) and the mixed 64 + 16 + tail and 64 + 64 + 32 + tail
  // decompositions of the hidden-16 and hidden-32 DCGRU widths.  M
  // covers tiles with spare rows for every MR and the 16-row narrow
  // blocks; K = 0 covers empty chains.
  std::uint64_t seed = 100;
  for (std::int64_t n : {1, 2, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 90, 170}) {
    for (std::int64_t m : {1, 5, 13, 97}) {
      for (std::int64_t k : {0, 1, 16, 170}) {
        expect_family_parity(m, k, n, seed);
        seed += 10;
      }
    }
  }
}

TEST(MicroKernel, WorkloadShapesMatchOracles) {
  // The DCGRU projections of the benchmark workloads: 41 nodes, batch
  // 64 at hidden 32 (K = 170; gates N = 64, candidate 32, readout 1)
  // and batch 32 at hidden 16 (K = 90; gates 32, candidate 16), with
  // their tn/nt backward shapes.  The tn backward of the N = 1 forward
  // runs the row-vectorized path over more than one staged k-block.
  expect_family_parity(2624, 170, 64, 7);
  expect_family_parity(2624, 170, 32, 17);
  expect_family_parity(2624, 170, 1, 27);
  expect_family_parity(1312, 90, 32, 37);
  expect_family_parity(1312, 90, 16, 47);
}

TEST(MicroKernel, EmptyInnerDimensionGivesPositiveZeros) {
  // K = 0: every chain is its 0.0f start, so C is +0.0 bits, not -0.0,
  // and the fused forward stores act(0 + bias).
  for (std::int64_t n : {1, 17, 64}) {
    SCOPED_TRACE("N=" + std::to_string(n));
    const Tensor a = Tensor::empty({13, 0});
    const Tensor b = Tensor::empty({0, n});
    const Tensor zeros = Tensor::zeros({13, n});
    expect_bits(ops::matmul(a, b), zeros);
    expect_bits(ops::matmul_tn(Tensor::empty({0, 13}), b), zeros);
    expect_bits(ops::matmul_nt(a, Tensor::empty({n, 0})), zeros);
    const Tensor bias = randn({n}, 5);
    Tensor want = ops::add_bias(zeros, bias);
    ops::apply_act_(want, ops::Act::kTanh);
    expect_bits(ops::matmul_bias_act(a, b, bias, ops::Act::kTanh), want);
  }
}

// ----------------------------------------------------------- fused SpMM

TEST(FusedSpmm, BatchedBitIdenticalToReference) {
  // Graphs below, at and across the 64-row block the collapsed kernel
  // splits each batch item into, so tasks that share an item but not a
  // block are compared with the batch-only oracle too.
  for (std::int64_t n : {1LL, 63LL, 64LL, 65LL, 200LL}) {
    const Csr m = random_csr(n, 21 + static_cast<std::uint64_t>(n));
    for (std::int64_t b : {1LL, 3LL}) {
      for (std::int64_t c : {1LL, 9LL}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " B=" + std::to_string(b) +
                     " C=" + std::to_string(c));
        Tensor x = randn({b, n, c}, 22 + static_cast<std::uint64_t>(n * b * c));
        expect_bits(m.spmm_batched(x), spmm_batched_reference(m, x));
      }
    }
  }
}

TEST(FusedSpmm, BiasActMatchesUnfusedComposition2D) {
  const Csr m = random_csr(30, 23);
  Tensor x = randn({30, 7}, 24);
  Tensor bias = randn({7}, 25);
  for (ops::Act act : {ops::Act::kIdentity, ops::Act::kSigmoid, ops::Act::kTanh,
                       ops::Act::kRelu}) {
    Tensor unfused = ops::add_bias(m.spmm(x), bias);
    ops::apply_act_(unfused, act);
    expect_bits(m.spmm_bias_act(x, bias, act), unfused);
  }
}

TEST(FusedSpmm, BiasActMatchesUnfusedCompositionBatched) {
  const Csr m = random_csr(25, 26);
  Tensor x = randn({4, 25, 5}, 27);
  Tensor bias = randn({5}, 28);
  Tensor unfused = ops::add_bias(m.spmm_batched(x), bias);
  ops::apply_act_(unfused, ops::Act::kSigmoid);
  expect_bits(m.spmm_bias_act(x, bias, ops::Act::kSigmoid), unfused);
}

// ----------------------------------------------------- fused GRU kernels

TEST(FusedGru, GatesMatchSigmoidSliceMul) {
  const std::int64_t H = 12;
  Tensor pre = randn({7, 5, 2 * H}, 31);
  Tensor h = randn({7, 5, H}, 32);
  Tensor r = Tensor::empty(h.shape(), h.space());
  Tensor u = Tensor::empty(h.shape(), h.space());
  Tensor rh = Tensor::empty(h.shape(), h.space());
  ops::gru_gates(pre, h, r, u, rh);

  Tensor ru = ops::sigmoid(pre);
  Tensor want_r = ru.slice(2, 0, H).contiguous();
  Tensor want_u = ru.slice(2, H, H).contiguous();
  expect_bits(r, want_r);
  expect_bits(u, want_u);
  expect_bits(rh, ops::mul(want_r, h));
}

TEST(FusedGru, StateMatchesAddMulSub) {
  Tensor c = randn({9, 14}, 33);
  Tensor u = randn({9, 14}, 34);
  Tensor h = randn({9, 14}, 35);
  expect_bits(ops::gru_state(c, u, h), ops::add(c, ops::mul(u, ops::sub(h, c))));
}

// ------------------------------------- in-place / output-reusing variants

TEST(ElementwiseVariants, IntoAndInplaceMatchAllocating) {
  Tensor a = randn({300}, 41);
  Tensor b = randn({300}, 42);
  Tensor out = Tensor::empty(a.shape(), a.space());
  ops::sub_into(a, b, out);
  expect_bits(out, ops::sub(a, b));

  // Aliasing: out == a must behave like the pure op.
  Tensor a2 = a.clone();
  ops::sub_into(a2, b, a2);
  expect_bits(a2, ops::sub(a, b));

  Tensor s = a.clone();
  ops::apply_act_(s, ops::Act::kSigmoid);
  expect_bits(s, ops::sigmoid(a));
  Tensor t = a.clone();
  ops::apply_act_(t, ops::Act::kTanh);
  expect_bits(t, ops::tanh(a));
  Tensor r = a.clone();
  ops::apply_act_(r, ops::Act::kRelu);
  expect_bits(r, ops::relu(a));
  Tensor i = a.clone();
  ops::apply_act_(i, ops::Act::kIdentity);
  expect_bits(i, a);
}

// ------------------------------------------- contiguity guards (satellite)

TEST(ContiguityGuards, InplaceOpsRejectNonContiguous) {
  Tensor base = randn({4, 6}, 51);
  Tensor view = base.slice(1, 0, 3);  // non-contiguous [4, 3] view
  ASSERT_FALSE(view.is_contiguous());
  Tensor other = randn({4, 3}, 52);
  EXPECT_THROW(ops::add_(view, other), std::logic_error);
  EXPECT_THROW(ops::sub_(view, other), std::logic_error);
  EXPECT_THROW(ops::mul_(view, other), std::logic_error);
  EXPECT_THROW(ops::scale_(view, 2.0f), std::logic_error);
  EXPECT_THROW(ops::axpy_(1.0f, other, view), std::logic_error);
  Tensor dst = Tensor::empty({4, 3});
  EXPECT_THROW(ops::sub_into(view, other, dst), std::logic_error);
}

// ------------------------------------------------ autograd: gradchecks

TEST(FusedAutograd, MatmulBiasActGradcheck) {
  for (ops::Act act : {ops::Act::kIdentity, ops::Act::kSigmoid, ops::Act::kTanh,
                       ops::Act::kRelu}) {
    Variable a = leaf({5, 4}, 61);
    Variable w = leaf({4, 3}, 62);
    Variable b = leaf({3}, 63);
    auto check = [&](Variable& wrt) {
      auto res = ag::gradcheck(
          [&](const Variable&) {
            return ag::sum_all(ag::matmul_bias_act(a, w, b, act));
          },
          wrt);
      EXPECT_LT(res.max_rel_err, kTol);
    };
    check(a);
    check(w);
    check(b);
  }
}

TEST(FusedAutograd, SpmmBiasActGradcheck) {
  const Csr m = random_csr(12, 64);
  const Csr mt = m.transpose();
  Variable x = leaf({12, 3}, 65);
  Variable b = leaf({3}, 66);
  for (Variable* wrt : {&x, &b}) {
    auto res = ag::gradcheck(
        [&](const Variable&) {
          return ag::sum_all(ag::spmm_bias_act(m, mt, x, b, ops::Act::kTanh));
        },
        *wrt);
    EXPECT_LT(res.max_rel_err, kTol);
  }
}

TEST(FusedAutograd, SpmmBiasActGradcheckBatched) {
  const Csr m = random_csr(8, 67);
  const Csr mt = m.transpose();
  Variable x = leaf({2, 8, 3}, 68);
  Variable b = leaf({3}, 69);
  for (Variable* wrt : {&x, &b}) {
    auto res = ag::gradcheck(
        [&](const Variable&) {
          return ag::sum_all(ag::spmm_bias_act(m, mt, x, b, ops::Act::kSigmoid));
        },
        *wrt);
    EXPECT_LT(res.max_rel_err, kTol);
  }
}

TEST(FusedAutograd, GruGatesGradcheck) {
  const std::int64_t H = 4;
  Variable pre = leaf({6, 2 * H}, 71);
  Variable h = leaf({6, H}, 72);
  for (Variable* wrt : {&pre, &h}) {
    auto res = ag::gradcheck(
        [&](const Variable&) {
          auto [rh, u] = ag::gru_gates(pre, h);
          return ag::sum_all(ag::add(rh, u));
        },
        *wrt);
    EXPECT_LT(res.max_rel_err, kTol);
  }
}

TEST(FusedAutograd, GruStateGradcheck) {
  Variable c = leaf({6, 5}, 73);
  Variable u = leaf({6, 5}, 74);
  Variable h = leaf({6, 5}, 75);
  for (Variable* wrt : {&c, &u, &h}) {
    auto res = ag::gradcheck(
        [&](const Variable&) { return ag::sum_all(ag::gru_state(c, u, h)); }, *wrt);
    EXPECT_LT(res.max_rel_err, kTol);
  }
}

// ------------------------------- autograd: fused vs reference, bit-exact

TEST(FusedAutograd, MatmulBiasActGradsMatchReferenceComposition) {
  for (ops::Act act : {ops::Act::kIdentity, ops::Act::kSigmoid, ops::Act::kTanh,
                       ops::Act::kRelu}) {
    Variable a1 = leaf({20, 11}, 81), w1 = leaf({11, 8}, 82), b1 = leaf({8}, 83);
    Variable a2 = leaf({20, 11}, 81), w2 = leaf({11, 8}, 82), b2 = leaf({8}, 83);

    Variable fused = ag::matmul_bias_act(a1, w1, b1, act);
    Variable pre = ag::add_bias(ag::matmul_reference(a2, w2), b2);
    Variable ref = act == ops::Act::kSigmoid  ? ag::sigmoid(pre)
                   : act == ops::Act::kTanh   ? ag::tanh(pre)
                   : act == ops::Act::kRelu   ? ag::relu(pre)
                                              : pre;
    expect_bits(fused.value(), ref.value());

    ag::sum_all(fused).backward();
    ag::sum_all(ref).backward();
    expect_bits(a1.grad(), a2.grad());
    expect_bits(w1.grad(), w2.grad());
    expect_bits(b1.grad(), b2.grad());
  }
}

TEST(FusedAutograd, LhsWithoutGradientSkipsItsGemm) {
  // A sequence's first gate projection multiplies data and the zero
  // state, which take no gradient.  Its backward must give the lhs no
  // gradient, keep w's and b's gradients bit-identical to a run whose
  // lhs takes one, and never compute the lhs's [M, K] product: the
  // sweep's peak stays below one tensor that large.
  const std::int64_t m = 256, k = 64, n = 2;
  const Tensor av = randn({m, k}, 87);
  auto expect_skipped = [&](auto&& op) {
    Variable a_data(av, /*requires_grad=*/false);
    Variable a_leaf(av.clone(), /*requires_grad=*/true);
    Variable w1 = leaf({k, n}, 88), b1 = leaf({n}, 89);
    Variable w2 = leaf({k, n}, 88), b2 = leaf({n}, 89);
    Variable loss = ag::sum_all(op(a_data, w1, b1));
    ag::sum_all(op(a_leaf, w2, b2)).backward();
    const std::size_t base = MemoryTracker::instance().current(kHostSpace);
    {
      ScopedPeakWatch watch(kHostSpace);
      loss.backward();
      EXPECT_LT(watch.peak_bytes() - base, static_cast<std::size_t>(m * k) * sizeof(float));
    }
    EXPECT_FALSE(a_data.impl()->grad.defined());
    expect_bits(w1.grad(), w2.grad());
    // b is an input of matmul_bias_act only.
    if (b2.impl()->grad.defined()) expect_bits(b1.grad(), b2.grad());
  };
  for (ops::Act act : kActs) {
    SCOPED_TRACE("matmul_bias_act act " + std::to_string(static_cast<int>(act)));
    expect_skipped([act](const Variable& a, const Variable& w, const Variable& b) {
      return ag::matmul_bias_act(a, w, b, act);
    });
  }
  SCOPED_TRACE("matmul");
  expect_skipped([](const Variable& a, const Variable& w, const Variable&) {
    return ag::matmul(a, w);
  });
}

TEST(FusedAutograd, GruChainGradsMatchReferenceComposition) {
  // Mirrors DCGRUCell's tape: pre -> gates -> candidate-style tanh ->
  // state update, with h consumed by gates and state exactly as in the
  // cell.  Grads on pre and h must match the unfused chain bit-for-bit.
  const std::int64_t H = 6;
  Variable pre1 = leaf({10, 2 * H}, 84), h1 = leaf({10, H}, 85),
           c1 = leaf({10, H}, 86);
  Variable pre2 = leaf({10, 2 * H}, 84), h2 = leaf({10, H}, 85),
           c2 = leaf({10, H}, 86);

  auto [rh1, u1] = ag::gru_gates(pre1, h1);
  Variable cand1 = ag::tanh(ag::add(c1, rh1));
  Variable out1 = ag::gru_state(cand1, u1, h1);

  Variable ru = ag::sigmoid(pre2);
  Variable r = ag::slice_lastdim(ru, 0, H);
  Variable u2 = ag::slice_lastdim(ru, H, H);
  Variable cand2 = ag::tanh(ag::add(c2, ag::mul(r, h2)));
  Variable out2 = ag::add(cand2, ag::mul(u2, ag::sub(h2, cand2)));

  expect_bits(out1.value(), out2.value());
  ag::sum_all(out1).backward();
  ag::sum_all(out2).backward();
  expect_bits(pre1.grad(), pre2.grad());
  expect_bits(h1.grad(), h2.grad());
  expect_bits(c1.grad(), c2.grad());
}

// ------------------------------------ cell-level fused vs unfused parity

TEST(DcgruFusion, CellForwardBackwardBitIdenticalToReferencePath) {
  auto supports_for = [](std::uint64_t seed) {
    SensorNetworkOptions opt;
    opt.num_nodes = 10;
    opt.k_neighbors = 3;
    opt.seed = seed;
    return nn::GraphSupports::from(
        dual_random_walk_supports(build_sensor_network(opt).adjacency));
  };
  const nn::GraphSupports supports = supports_for(91);
  // A different graph on the same nodes: the dynamic-topology overload
  // must diffuse over these, not the construction-time supports.
  const nn::GraphSupports dynamic = supports_for(98);
  ASSERT_GT(ops::max_abs_diff(supports.mats[0].to_dense(), dynamic.mats[0].to_dense()),
            0.0f);
  Rng rng(92);
  nn::DCGRUCell cell(3, 8, supports, 2, rng);
  const nn::DcgruCellReference reference(cell, "");
  Tensor x = randn({4, 10, 3}, 93);
  Tensor h0 = randn({4, 10, 8}, 94);

  for (const bool dynamic_step : {false, true}) {
    SCOPED_TRACE(dynamic_step ? "forward(x, h, supports)" : "forward(x, h)");
    const Variable xv(x, false);
    // Two chained steps so the hidden state is consumed by a later cell
    // too (the recurrent accumulation-order case).
    cell.zero_grad();
    Variable h_fused(h0.clone(), /*requires_grad=*/true);
    Variable out_fused = dynamic_step ? cell.forward(xv, h_fused, dynamic)
                                      : cell.forward(xv, h_fused);
    out_fused = dynamic_step ? cell.forward(xv, out_fused, dynamic)
                             : cell.forward(xv, out_fused);
    ag::sum_all(out_fused).backward();
    std::vector<Tensor> grads_fused;
    for (const Variable& p : cell.parameters()) grads_fused.push_back(p.grad().clone());

    cell.zero_grad();
    const nn::GraphSupports& step_supports = dynamic_step ? dynamic : supports;
    Variable h_ref(h0.clone(), /*requires_grad=*/true);
    Variable out_ref = reference.forward(xv, h_ref, step_supports);
    out_ref = reference.forward(xv, out_ref, step_supports);
    ag::sum_all(out_ref).backward();

    expect_bits(out_fused.value(), out_ref.value());
    expect_bits(h_fused.grad(), h_ref.grad());
    const auto params = cell.parameters();
    ASSERT_EQ(params.size(), grads_fused.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      expect_bits(grads_fused[i], params[i].grad());
    }
  }
  cell.zero_grad();
}

// ----------------------------- grad-ready accounting with fused nodes

class CountingObserver : public GradReadyObserver {
 public:
  void on_backward_start(const std::vector<Variable::Impl*>& leaves) override {
    for (Variable::Impl* l : leaves) ++starts_[l];
  }
  void on_grad_ready(const Variable::Impl* leaf) override { ++ready_[leaf]; }

  std::size_t leaf_count() const { return starts_.size(); }
  bool fired_once_each() const {
    if (ready_.size() != starts_.size()) return false;
    for (const auto& [leaf, n] : ready_) {
      if (n != 1) return false;
    }
    return true;
  }

 private:
  std::map<const Variable::Impl*, int> starts_;
  std::map<const Variable::Impl*, int> ready_;
};

TEST(DcgruFusion, GradReadyFiresOncePerLeafWithFusedTape) {
  // gru_gates makes its pre input a two-consumer parent; the ready
  // countdown must still fire exactly once per leaf.
  SensorNetworkOptions opt;
  opt.num_nodes = 8;
  opt.k_neighbors = 3;
  opt.seed = 95;
  auto supports =
      nn::GraphSupports::from(dual_random_walk_supports(build_sensor_network(opt).adjacency));
  Rng rng(96);
  nn::DCGRUCell cell(2, 4, supports, 1, rng);
  Variable h(Tensor::zeros({3, 8, 4}), false);
  Variable out = cell.forward(Variable(randn({3, 8, 2}, 97), false), h);
  CountingObserver obs;
  ag::sum_all(out).backward(&obs);
  EXPECT_EQ(obs.leaf_count(), cell.parameters().size());
  EXPECT_TRUE(obs.fired_once_each());
}

}  // namespace
}  // namespace pgti
