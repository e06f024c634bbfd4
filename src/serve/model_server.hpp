// ModelServer: multi-tenant batched inference over shared compiled Plans.
//
// One process, N named models, K workers. Each hosted model is an
// immutable Plan (engine/plan.hpp) plus a per-model config (batching wait,
// queue bound, shed policy, scheduling weight) and a bounded request queue
// with its own batch former (model_queue.hpp). A shared pool of K workers
// serves all of them: every worker owns one ExecContext per hosted plan,
// so a float ResNet-20, its int8 twin, and an ALF-pruned variant run
// concurrently from one process with no duplicated weights — the Plans are
// shared, only the cheap per-worker contexts multiply.
//
// Dispatch path of one batch:
//   1. A worker picks the backlogged model with the smallest
//      weight-normalized service (scheduler.hpp) and claims its tick.
//   2. Deadline-expired requests are shed, then the tick waits up to the
//      model's max_wait_us for batch-mates (leaving early on a full
//      batch), exactly the single-model policy.
//   3. The longest queue prefix fitting Plan::batch() is packed into the
//      worker's staging buffer and executed on the worker's OWN
//      ExecContext for that plan — no lock held during the run.
//   4. Logit rows scatter back through the request callbacks (they run on
//      the worker thread; keep them light), and the model's stats move
//      the requests from in_flight to completed.
//
// With workers > 1 each worker pins its engine runs inline
// (InlineExecutionGuard), so K batches crunch on K cores concurrently
// instead of serializing on the process worker pool; with workers == 1 the
// single worker fans each batch out across the pool (a single-dispatcher
// server, what one model needs). Either way results are bit-identical to a
// direct single-threaded ExecContext run of the same plan, whatever
// requests share a batch: chunk grids are fixed at compile time, the
// float kernels compute each element alike at every product shape and
// thread count, and quantization scales are per-image.
//
// LOCKING (machine-checked; see core/thread_annotations.hpp): all
// queue/scheduler/dispatch state lives under the ONE annotated Mutex m_,
// so stats() is a coherent snapshot and the conservation identity in
// types.hpp holds exactly. The ALF_GUARDED_BY/ALF_REQUIRES annotations
// below make clang -Wthread-safety reject any access outside the lock.
// Registration metadata that submit() reads lock-free (name -> index map,
// per-model Plan pointers) is split into separate members that become
// immutable once start() spawns the workers. stop() (and the destructor)
// drains every accepted request of every model before joining the workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"
#include "engine/exec_context.hpp"
#include "engine/plan.hpp"
#include "serve/model_queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/types.hpp"

namespace alf {

class ModelServer {
 public:
  using Callback = ServeCallback;
  using ErrorCallback = ServeErrorCallback;
  using ShedPolicy = alf::ShedPolicy;
  using ModelConfig = serve::ModelQueue::Config;

  struct Config {
    /// Workers in the shared pool. Each owns one ExecContext per hosted
    /// plan; 1 is a single dispatcher that fans each batch out over the
    /// process worker pool.
    size_t workers = 1;
    /// Start with dispatch paused (see pause()/resume()); used by tests
    /// and replay harnesses to stage backlogs deterministically.
    bool start_paused = false;
  };

  /// Per-submit options.
  struct SubmitOptions {
    /// Latency budget in microseconds from the submit call; 0 = none. A
    /// request still queued when the budget runs out is shed before batch
    /// formation: its future (or error callback) completes with
    /// DeadlineExpiredError and stats().expired counts it.
    uint64_t deadline_us = 0;
  };

  ModelServer();
  explicit ModelServer(Config cfg);
  ~ModelServer();  ///< stop()s: drains every model, then joins the pool

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  /// Registers a named model. Only valid before start(); duplicate names
  /// and null plans fail with CheckError. The plan is shared, not copied.
  void add_model(const std::string& name, std::shared_ptr<const Plan> plan,
                 ModelConfig cfg = {});

  /// Registers every "*.plan" blob in `dir` via alf::plan::load, model
  /// name = file stem, lexicographic order — the compile-once/deploy-many
  /// path (blobs come from alf_planc). All models share `cfg`. Returns the
  /// registered names; throws PlanIoError/PlanVerifyError on a bad blob
  /// and CheckError if the directory holds no blobs. Only valid before
  /// start().
  std::vector<std::string> add_models_from_dir(const std::string& dir,
                                               ModelConfig cfg = {});

  /// Allocates every worker's per-plan ExecContexts and staging buffers,
  /// then spawns the pool. Requires at least one model.
  void start();
  bool started() const { return started_; }

  /// Enqueues `x` [n, Ci, H, W] (1 <= n <= the model's Plan::batch()) for
  /// `model`; `done` fires once with the logits [n, classes] on a worker
  /// thread. `fail` (optional) receives the typed error if the server
  /// sheds the accepted request (kDropOldest / deadline). Throws
  /// CheckError on unknown model, shape mismatch, null `done`, or after
  /// stop(); QueueFullError when admission control rejects (kReject).
  /// (Overloads instead of defaulted arguments: a nested class's member
  /// initializers are not available for in-class default arguments of its
  /// enclosing class.)
  void submit(const std::string& model, Tensor x, Callback done);
  void submit(const std::string& model, Tensor x, Callback done,
              ErrorCallback fail);
  void submit(const std::string& model, Tensor x, Callback done,
              ErrorCallback fail, SubmitOptions opts);

  /// Future-returning form. Admission errors (kReject) are thrown from the
  /// call; shed-after-accept errors arrive through the future.
  std::future<Tensor> submit(const std::string& model, Tensor x);
  std::future<Tensor> submit(const std::string& model, Tensor x,
                             SubmitOptions opts);

  /// Suspends batch formation across all models: a batch already packed
  /// keeps executing, but once pause() returns no new batch forms — open
  /// ticks are abandoned back to their queues. resume() restarts dispatch.
  /// stop() overrides a pause to drain.
  void pause();
  void resume();

  /// Drains every model's queue, then joins the workers. Idempotent;
  /// called by the destructor. Submissions after stop() fail (CheckError).
  void stop();

  /// Requests currently queued (one model / all models).
  size_t pending(const std::string& model) const;
  size_t pending() const;

  /// Coherent per-model snapshot (single struct copied under the mutex).
  ServeStats stats(const std::string& model) const;
  /// Field-wise sum over all models (max_fill is the max).
  ServeStats stats() const;

  const Plan& plan(const std::string& model) const;
  std::vector<std::string> model_names() const;  ///< registration order
  const Config& config() const { return cfg_; }

 private:
  /// Per-worker, per-model execution state: the worker's own context plus
  /// the packing buffers one dispatch writes (worker-thread-only).
  struct PlanSlot {
    ExecContext ctx;
    std::vector<float> in;   ///< [batch * image_floats] packed input rows
    std::vector<float> out;  ///< [batch * classes] packed logit rows
    explicit PlanSlot(const std::shared_ptr<const Plan>& plan);
  };
  struct Worker {
    std::vector<PlanSlot> slots;  ///< one per hosted model, model order
    std::thread thread;
  };

  size_t model_index(const std::string& name) const;
  void worker_loop(size_t wi);
  /// True when some model can take a tick right now.
  bool any_eligible() const ALF_REQUIRES(m_);
  bool all_queues_empty() const ALF_REQUIRES(m_);
  /// Completes shed requests with the given typed error (call off-lock).
  static void deliver_failures(std::vector<serve::Request>& reqs,
                               const char* what, bool queue_full);

  Config cfg_;
  // Registration metadata, immutable once start() spawns the pool: the
  // lock-free fast path of submit()/plan() reads these (name lookup,
  // shape checks against the immutable Plan) without touching m_.
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::shared_ptr<const Plan>> plans_;
  std::vector<std::string> names_;
  std::vector<Worker> workers_;  ///< indexed state owned by each worker
  std::atomic<bool> started_{false};

  mutable Mutex m_;
  std::condition_variable work_cv_;
  // Everything below runs under m_ — enforced at compile time (clang
  // -Wthread-safety) by the annotations, not by convention. The queue
  // objects themselves are reached only through models_: GUARDED_BY
  // covers the vector, PT_GUARDED_BY the pointed-to queues, and each
  // ModelQueue method additionally REQUIRES the mutex it is passed.
  std::vector<std::unique_ptr<serve::ModelQueue>> models_
      ALF_GUARDED_BY(m_) ALF_PT_GUARDED_BY(m_);
  serve::WeightedScheduler sched_ ALF_GUARDED_BY(m_);
  bool paused_ ALF_GUARDED_BY(m_) = false;
  bool stop_ ALF_GUARDED_BY(m_) = false;
};

}  // namespace alf
