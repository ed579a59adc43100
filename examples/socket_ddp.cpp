// Multi-process DDP over the TCP transport: forks world real OS
// processes — no shared address space — connects them into a
// SocketTransport full mesh, trains a small PGT-I job via
// DistTrainer::run_rank, and proves the transport swap costs zero
// determinism by comparing every loss byte against the in-process
// thread cluster (DESIGN.md §15).
//
//   ./build/examples/socket_ddp            # one narrated run, world=4
//   ./build/examples/socket_ddp --smoke    # CI sweep: {distributed-index,
//                                          #   generalized-index} x prefetch
//                                          #   {0,2} x world {4,1}; exits
//                                          #   nonzero on any byte mismatch
//
// Launch mechanics (the part a real torchrun-style launcher would do):
// the parent binds the rendezvous listener BEFORE forking and passes
// the inherited fd to the rank-0 child, so no child can race the bind;
// every other rank dials the advertised port.  Rank 0's child streams
// its loss curve back through a pipe as raw IEEE-754 bytes — hex-exact,
// no decimal round trip — and the parent memcmps it against the
// reference curve from DistTrainer::run().
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/pgt_i.h"
#include "dist/transport_socket.h"
#include "runtime/thread_pool.h"

using namespace pgti;

namespace {

core::DistConfig job_config(core::DistMode mode, int world, int prefetch) {
  core::DistConfig cfg;
  cfg.spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(48);
  cfg.spec.horizon = 4;
  cfg.spec.batch_size = 8;
  cfg.mode = mode;
  cfg.world = world;
  cfg.epochs = 2;
  cfg.hidden_dim = 10;
  cfg.diffusion_steps = 1;
  cfg.lr = 2e-3f;
  cfg.max_batches_per_epoch = 4;
  cfg.max_val_batches = 2;
  cfg.prefetch_depth = prefetch;
  cfg.seed = 61;
  return cfg;
}

/// Rank-0 child -> parent wire: epoch count, then per epoch the raw
/// bytes of (train_mae, val_mae).
std::vector<double> curve_doubles(const core::DistResult& r) {
  std::vector<double> flat;
  flat.reserve(r.curve.size() * 2);
  for (const auto& em : r.curve) {
    flat.push_back(em.train_mae);
    flat.push_back(em.val_mae);
  }
  return flat;
}

bool write_exact(int fd, const void* data, std::size_t bytes) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::write(fd, p, bytes);
    if (n <= 0) return false;
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_exact(int fd, void* data, std::size_t bytes) {
  char* p = static_cast<char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::read(fd, p, bytes);
    if (n <= 0) return false;
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

/// One rank's process body: rendezvous, train, report, _exit.  Never
/// returns.  Uses _exit so the child cannot re-flush stdio buffers it
/// inherited from the parent.
[[noreturn]] void rank_process(const core::DistConfig& cfg, int rank,
                               std::uint16_t port, int listen_fd,
                               int report_fd) {
  // The parent's pool was forked without its worker threads: run every
  // kernel inline and never touch the pool's copied mutex.
  PoolShare pool_share(1);
  int code = 0;
  // Scope the transport so its destructor runs before _exit: the
  // destructor drains and joins the per-peer writer threads, which is
  // what guarantees the final sync's RELEASE/ARRIVE frames reach slower
  // peers before this process's sockets vanish.
  try {
    dist::SocketOptions opt;
    opt.rank = rank;
    opt.world = cfg.world;
    opt.port = port;
    opt.listen_fd = rank == 0 ? listen_fd : -1;
    dist::SocketTransport transport(opt);
    dist::CommContext context;  // per-process model/ledger facade
    dist::Communicator comm(transport, context);

    core::DistResult r = core::DistTrainer(cfg).run_rank(comm);

    if (rank == 0) {
      const std::vector<double> flat = curve_doubles(r);
      const std::uint64_t n = flat.size();
      if (!write_exact(report_fd, &n, sizeof(n)) ||
          !write_exact(report_fd, flat.data(), n * sizeof(double))) {
        std::fprintf(stderr, "[rank 0] report pipe failed\n");
        code = 3;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[rank %d] %s\n", rank, e.what());
    code = 2;
  }
  ::_exit(code);
}

/// Forks cfg.world rank processes, joins them, and returns rank 0's
/// loss curve.  Throws on any nonzero child exit.
std::vector<double> run_multiprocess(const core::DistConfig& cfg) {
  auto [listen_fd, port] =
      dist::socket_listen("127.0.0.1", 0, cfg.world);
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe() failed");

  std::vector<pid_t> children;
  for (int rank = 0; rank < cfg.world; ++rank) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork() failed");
    if (pid == 0) {
      ::close(pipe_fds[0]);
      if (rank != 0) ::close(listen_fd);
      rank_process(cfg, rank, port, listen_fd, pipe_fds[1]);
    }
    children.push_back(pid);
  }
  ::close(listen_fd);
  ::close(pipe_fds[1]);

  std::uint64_t n = 0;
  std::vector<double> flat;
  const bool got_header = read_exact(pipe_fds[0], &n, sizeof(n));
  if (got_header) {
    flat.resize(n);
    if (!read_exact(pipe_fds[0], flat.data(), n * sizeof(double))) {
      flat.clear();
    }
  }
  ::close(pipe_fds[0]);

  bool all_ok = true;
  for (std::size_t i = 0; i < children.size(); ++i) {
    int status = 0;
    ::waitpid(children[i], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "rank %zu exited abnormally (status %d)\n", i,
                   status);
      all_ok = false;
    }
  }
  if (!all_ok || flat.empty()) {
    throw std::runtime_error("multi-process run failed");
  }
  return flat;
}

const char* mode_name(core::DistMode mode) {
  switch (mode) {
    case core::DistMode::kDistributedIndex:
      return "distributed-index";
    case core::DistMode::kGeneralizedIndex:
      return "generalized-index";
    default:
      return "?";
  }
}

/// Returns true when the multi-process curve is byte-identical to the
/// in-process reference for this config.
bool check_one(core::DistMode mode, int world, int prefetch, bool verbose) {
  const core::DistConfig cfg = job_config(mode, world, prefetch);
  const core::DistResult ref = core::DistTrainer(cfg).run();
  const std::vector<double> expect = curve_doubles(ref);
  std::vector<double> got;
  try {
    got = run_multiprocess(cfg);
  } catch (const std::exception& e) {
    std::printf("  %-18s world=%d prefetch=%d : FAILED (%s)\n",
                mode_name(mode), world, prefetch, e.what());
    return false;
  }

  const bool same =
      expect.size() == got.size() &&
      std::memcmp(expect.data(), got.data(),
                  expect.size() * sizeof(double)) == 0;
  std::printf("  %-18s world=%d prefetch=%d : %s\n", mode_name(mode), world,
              prefetch, same ? "bit-identical" : "MISMATCH");
  if (verbose || !same) {
    for (std::size_t e = 0; e * 2 + 1 < got.size(); ++e) {
      std::printf("    epoch %zu  threads train %a | procs train %a\n", e,
                  expect[e * 2], got[e * 2]);
    }
  }
  return same;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";

  if (!smoke) {
    std::printf(
        "DDP across %d OS processes (fork + TCP mesh) vs %d threads\n", 4, 4);
    return check_one(core::DistMode::kDistributedIndex, 4, 2, /*verbose=*/true)
               ? 0
               : 1;
  }

  // CI smoke: every strategy/prefetch combination the acceptance bar
  // names, at world=4 (real 4-process mesh) and world=1 (degenerate
  // single-process rendezvous), must be byte-identical to the
  // in-process thread cluster.
  std::printf("socket_ddp --smoke: multi-process vs in-process loss curves\n");
  int failures = 0;
  for (core::DistMode mode :
       {core::DistMode::kDistributedIndex, core::DistMode::kGeneralizedIndex}) {
    for (int world : {4, 1}) {
      for (int prefetch : {0, 2}) {
        if (!check_one(mode, world, prefetch, /*verbose=*/false)) ++failures;
      }
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d combination(s) diverged\n", failures);
    return 1;
  }
  std::printf("all combinations bit-identical across the transport swap\n");
  return 0;
}
