/**
 * @file
 * Executes the 1F1B pipeline schedule on the runtime pool: every
 * forward or backward of one micro-batch on one stage of one
 * data-parallel replica is a pool task, and stages of a replica run
 * concurrently as far as the schedule's data dependencies allow.
 *
 * The executor walks `PipelineSchedule::oneFOneB(P, M).stageOps(s)`
 * for every (replica d, stage s) "lane". A lane's next op is handed
 * to the pool only once its inputs exist:
 *
 *   - the lane's previous op finished (ops of one stage run strictly
 *     in stageOps(s) order, one at a time);
 *   - Forward(s, m) needs Forward(s-1, m) of the same replica;
 *   - Backward(s, m) needs Backward(s+1, m) of the same replica.
 *
 * No task ever waits for a message, so any pool width — including a
 * single helper serving every stage — makes progress. Because each
 * stage's ops keep their schedule order, every per-stage and
 * per-channel sequence (stash FIFOs, gradient accumulation, channel
 * sends, lazy-error chains) sees micro-batches in the same order as
 * a serial walk: the numerics do not depend on the pool width.
 *
 * Ops run as pool tasks, so the kernels they call take the runtime's
 * nested-region path and run inline on the op's thread: the stage
 * task, not the kernel chunk, is the unit of parallelism.
 *
 * A completing op makes its successors ready and submits one pool
 * task per newly ready op. A task claims a ready op when it starts,
 * preferring the lane its thread ran last, then that lane's replica,
 * so a stage's weights and stash tend to stay in one core's cache;
 * the task count stays one per op. A single dispatcher at a time
 * submits, so on a serial pool (where TaskGroup::run executes
 * inline) the caller's dispatch loop runs ops one after another
 * instead of recursing into them. The steady state allocates
 * nothing: the ready list is reserved at construction and each task
 * captures one pointer.
 */

#ifndef OPTIMUS_PARALLEL_PIPELINE_EXECUTOR_HH
#define OPTIMUS_PARALLEL_PIPELINE_EXECUTOR_HH

#include <mutex>
#include <type_traits>
#include <vector>

#include "runtime/runtime.hh"
#include "schedule/schedule.hh"

namespace optimus
{

/**
 * Non-owning reference to an op body fn(replica, op). run() blocks
 * until every op finished, so referencing the caller's lambda is
 * safe, and building one never allocates.
 */
class PipeOpFn
{
  public:
    template <typename F,
              typename = typename std::enable_if<!std::is_same<
                  typename std::decay<F>::type, PipeOpFn>::value>::type>
    PipeOpFn(const F &f)
        : obj_(&f), call_([](const void *o, int d, const PipeOp &op) {
              (*static_cast<const F *>(o))(d, op);
          })
    {}

    void operator()(int d, const PipeOp &op) const
    {
        call_(obj_, d, op);
    }

  private:
    const void *obj_;
    void (*call_)(const void *, int, const PipeOp &);
};

/** Dependency-driven 1F1B execution over D replicas of P stages. */
class PipelineExecutor
{
  public:
    PipelineExecutor(int replicas, int stages, int micro_batches);

    PipelineExecutor(const PipelineExecutor &) = delete;
    PipelineExecutor &operator=(const PipelineExecutor &) = delete;

    /**
     * Run every op of every replica once, calling @p body(d, op) for
     * each (on whichever thread runs the op's task). Blocks until
     * all ops finished; the calling thread helps run them.
     */
    void run(const PipeOpFn &body);

  private:
    /** Per-(replica, stage) progress; guarded by mutex_. */
    struct Lane
    {
        /** Index of the lane's next op in stageOps(stage). */
        int next = 0;
        /** Forwards / backwards this lane finished. */
        int fwdDone = 0;
        int bwdDone = 0;
        /** The next op is queued or running. */
        bool busy = false;
    };

    /** Mark lane @p l ready if its next op is runnable (mutex_
     *  held). */
    void offer(int l);
    /** Submit one pool task per unsubmitted ready op (one
     *  dispatcher at a time). */
    void dispatch();
    /** Take a ready lane for a thread that last ran lane @p last
     *  (mutex_ held). */
    int claim(int last);
    /** Task body: run one ready op, then release its successors. */
    void runOp();

    int stages_;
    PipelineSchedule schedule_;
    TaskGroup group_;
    const PipeOpFn *body_ = nullptr;

    std::mutex mutex_;
    std::vector<Lane> lanes_;
    /** Ready lanes, oldest first; each lane appears at most once. */
    std::vector<int> ready_;
    /** Ready ops no task has been submitted for yet. */
    size_t unsubmitted_ = 0;
    /** A thread is draining ready_ (see dispatch()). */
    bool dispatching_ = false;
};

} // namespace optimus

#endif // OPTIMUS_PARALLEL_PIPELINE_EXECUTOR_HH
