#include "parallel/pipeline_executor.hh"

#include <cstddef>

#include "util/logging.hh"

namespace optimus
{

PipelineExecutor::PipelineExecutor(int replicas, int stages,
                                   int micro_batches)
    : stages_(stages),
      schedule_(PipelineSchedule::oneFOneB(stages, micro_batches)),
      lanes_(static_cast<size_t>(replicas) * stages)
{
    OPTIMUS_ASSERT(replicas >= 1);
    // Each lane is ready at most once, so push_back never grows it.
    ready_.reserve(lanes_.size());
}

void
PipelineExecutor::offer(int l)
{
    Lane &lane = lanes_[l];
    const int s = l % stages_;
    const std::vector<PipeOp> &ops = schedule_.stageOps(s);
    if (lane.busy || lane.next == static_cast<int>(ops.size()))
        return;
    const PipeOp &op = ops[lane.next];
    // Inputs: the neighbour stage's activation (forward) or
    // gradient (backward) for this micro-batch.
    if (op.kind == PipeOpKind::Forward) {
        if (s > 0 && lanes_[l - 1].fwdDone <= op.microBatch)
            return;
    } else if (s + 1 < stages_ &&
               lanes_[l + 1].bwdDone <= op.microBatch) {
        return;
    }
    lane.busy = true;
    // optlint:coldalloc — capacity reserved at construction.
    ready_.push_back(l);
    ++unsubmitted_;
}

void
PipelineExecutor::dispatch()
{
    std::unique_lock<std::mutex> lock(mutex_);
    // One dispatcher at a time: whoever finds the flag set leaves
    // its newly ready ops to the active dispatcher, whose loop
    // re-checks the count under the lock before it gives up.
    if (dispatching_)
        return;
    dispatching_ = true;
    while (unsubmitted_ > 0) {
        --unsubmitted_;
        lock.unlock();
        group_.run([this] { runOp(); });
        lock.lock();
    }
    dispatching_ = false;
}

int
PipelineExecutor::claim(int last)
{
    // Prefer the lane this thread ran last, then another lane of its
    // replica: their weights, stash and boundary tensors are warm in
    // this core's cache. Otherwise the oldest ready op.
    size_t pick = 0;
    int pick_rank = 2;
    for (size_t i = 0; i < ready_.size() && pick_rank > 0; ++i) {
        const int l = ready_[i];
        const int rank = l == last ? 0
                         : last >= 0 && l / stages_ == last / stages_
                             ? 1
                             : 2;
        if (rank < pick_rank) {
            pick = i;
            pick_rank = rank;
        }
    }
    const int l = ready_[pick];
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(pick));
    return l;
}

void
PipelineExecutor::runOp()
{
    // The lane this thread ran last (in any executor: a stale index
    // only weakens the preference).
    thread_local int t_lastLane = -1;
    int l;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        l = claim(t_lastLane);
    }
    t_lastLane = l;
    const int s = l % stages_;
    // lanes_[l].next is stable while the lane is busy, and only this
    // task advances it.
    const PipeOp &op = schedule_.stageOps(s)[lanes_[l].next];
    (*body_)(l / stages_, op);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Lane &lane = lanes_[l];
        ++lane.next;
        lane.busy = false;
        if (op.kind == PipeOpKind::Forward) {
            ++lane.fwdDone;
            if (s + 1 < stages_)
                offer(l + 1);
        } else {
            ++lane.bwdDone;
            if (s > 0)
                offer(l - 1);
        }
        offer(l);
    }
    dispatch();
}

// optlint:hot — steady-state step path (zero-allocation contract).
void
PipelineExecutor::run(const PipeOpFn &body)
{
    body_ = &body;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Lane &lane : lanes_)
            lane = Lane{};
        for (int l = 0; l < static_cast<int>(lanes_.size()); ++l)
            offer(l);
    }
    dispatch();
    group_.wait();
    for (const Lane &lane : lanes_) {
        OPTIMUS_ASSERT(lane.next ==
                       static_cast<int>(
                           schedule_.stageOps(0).size()));
    }
    body_ = nullptr;
}

} // namespace optimus
