// alf_served: the deploy-many half of compile-once/deploy-many, over the
// wire. Serves every "*.plan" blob in --plan-dir (compiled by alf_planc)
// on one TCP port, speaking the ALFN protocol (src/net/wire.hpp), across
// --shards N processes that share the port via SO_REUSEPORT — the kernel
// hash-balances connections, the mmap-loaded blobs keep one physical copy
// of the weights across all shards.
//
//   alf_planc --quick --out plans/
//   alf_served --plan-dir plans/ --port 7411 --shards 4 --workers 2
//
// The parent creates ALL listening sockets before forking (SO_REUSEPORT
// set before bind; with --port 0 the first socket resolves the ephemeral
// port the rest then bind), so connections queue in the accept backlog
// from the moment "ready port=..." is printed — no shard startup race.
//
// SIGTERM drains gracefully: every shard stops accepting, answers every
// request it already accepted, flushes, and exits 0 (the parent forwards
// the signal and exits with the worst child status). See
// src/net/server.hpp for the drain identity the per-shard stats line
// reports.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "serve/model_server.hpp"

namespace {

struct Options {
  std::string plan_dir;
  int port = 0;  // 0 = ephemeral, resolved and printed on the ready line
  int shards = 1;
  size_t workers = 2;
  size_t max_queue = 8192;
  uint64_t max_wait_us = 200;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --plan-dir DIR [--port P] [--shards N] [--workers K]\n"
      "          [--max-queue Q] [--max-wait-us U]\n"
      "Serves every *.plan blob in DIR over TCP (ALFN protocol); model\n"
      "name = blob stem. --port 0 picks an ephemeral port (printed on the\n"
      "'ready port=...' line). --shards N forks N SO_REUSEPORT processes.\n"
      "SIGTERM drains gracefully and exits 0.\n",
      argv0);
  return 2;
}

// --- per-shard SIGTERM -> graceful drain ---------------------------------

std::atomic<alf::net::NetServer*> g_server{nullptr};
std::atomic<bool> g_term{false};

void shard_on_term(int) {
  g_term.store(true, std::memory_order_release);
  alf::net::NetServer* s = g_server.load(std::memory_order_acquire);
  if (s != nullptr) s->request_drain();  // async-signal-safe
}

void install_handler(void (*fn)(int)) {
  struct sigaction sa{};
  sa.sa_handler = fn;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

/// Runs one shard to drain completion. Owns `listen_fd`.
int run_shard(int listen_fd, const Options& opt) {
  install_handler(shard_on_term);
  try {
    alf::ModelServer::Config scfg;
    scfg.workers = opt.workers;
    alf::ModelServer ms(scfg);
    alf::ModelServer::ModelConfig mc;
    mc.max_wait_us = opt.max_wait_us;
    mc.max_queue = opt.max_queue;
    const std::vector<std::string> names =
        ms.add_models_from_dir(opt.plan_dir, mc);
    ms.start();
    alf::net::NetServer srv(ms, listen_fd);
    g_server.store(&srv, std::memory_order_release);
    // A signal delivered while the plans were loading saw a null server;
    // honor it now.
    if (g_term.load(std::memory_order_acquire)) srv.request_drain();
    std::fprintf(stderr, "alf_served[%d]: serving %zu models on port %u\n",
                 static_cast<int>(::getpid()), names.size(), srv.port());
    srv.run();
    g_server.store(nullptr, std::memory_order_release);
    ms.stop();
    const alf::net::NetStats st = srv.stats();
    std::fprintf(stderr,
                 "alf_served[%d]: drained: submitted=%llu ok=%llu "
                 "shed=%llu rejected=%llu orphaned=%llu\n",
                 static_cast<int>(::getpid()),
                 static_cast<unsigned long long>(st.submitted),
                 static_cast<unsigned long long>(st.ok),
                 static_cast<unsigned long long>(st.shed),
                 static_cast<unsigned long long>(st.rejected),
                 static_cast<unsigned long long>(st.orphaned));
    return st.submitted == st.ok + st.shed + st.orphaned ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alf_served[%d]: fatal: %s\n",
                 static_cast<int>(::getpid()), e.what());
    return 1;
  }
}

// --- parent: fork/forward/reap -------------------------------------------

constexpr int kMaxShards = 64;
pid_t g_pids[kMaxShards];
std::atomic<int> g_nchildren{0};
std::atomic<bool> g_parent_term{false};

void parent_on_term(int) {
  g_parent_term.store(true, std::memory_order_release);
  const int n = g_nchildren.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) ::kill(g_pids[i], SIGTERM);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--plan-dir") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.plan_dir = v;
    } else if (a == "--port") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.port = std::atoi(v);
    } else if (a == "--shards") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.shards = std::atoi(v);
    } else if (a == "--workers") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.workers = static_cast<size_t>(std::atoi(v));
    } else if (a == "--max-queue") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.max_queue = static_cast<size_t>(std::atoll(v));
    } else if (a == "--max-wait-us") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.max_wait_us = static_cast<uint64_t>(std::atoll(v));
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.plan_dir.empty() || opt.shards < 1 || opt.shards > kMaxShards ||
      opt.port < 0 || opt.port > 65535 || opt.workers < 1) {
    return usage(argv[0]);
  }

  // All listening sockets exist before any child runs: connections queue
  // in the backlog while shards load plans, and the ready line below is
  // true the instant it prints.
  std::vector<int> fds;
  try {
    const bool reuse = opt.shards > 1;
    fds.push_back(alf::net::listen_on(static_cast<uint16_t>(opt.port), reuse));
    const uint16_t port = alf::net::local_port(fds[0]);
    for (int s = 1; s < opt.shards; ++s)
      fds.push_back(alf::net::listen_on(port, true));
    std::printf("alf_served: ready port=%u shards=%d\n", port, opt.shards);
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alf_served: %s\n", e.what());
    return 1;
  }

  if (opt.shards == 1) return run_shard(fds[0], opt);

  // Fork BEFORE any thread exists in this process (ModelServer spawns its
  // pool inside the children) — forking a multithreaded process can
  // inherit held mutexes.
  install_handler(parent_on_term);
  for (int s = 0; s < opt.shards; ++s) {
    if (g_parent_term.load(std::memory_order_acquire)) break;
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("alf_served: fork");
      parent_on_term(SIGTERM);
      break;
    }
    if (pid == 0) {
      for (int t = 0; t < opt.shards; ++t)
        if (t != s) ::close(fds[static_cast<size_t>(t)]);
      ::_exit(run_shard(fds[static_cast<size_t>(s)], opt));
    }
    g_pids[g_nchildren.load(std::memory_order_relaxed)] = pid;
    g_nchildren.fetch_add(1, std::memory_order_release);
  }
  for (int s = 0; s < opt.shards; ++s) ::close(fds[static_cast<size_t>(s)]);

  int rc = 0;
  for (;;) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    if (pid < 0) {
      if (errno == EINTR) continue;
      break;  // ECHILD: all reaped
    }
    const int child_rc = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    if (child_rc != 0) {
      rc = child_rc;
      parent_on_term(SIGTERM);  // one shard failed: bring the rest down
    }
  }
  return rc;
}
