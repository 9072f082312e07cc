/**
 * @file
 * Server-wide cell scheduler: one shared simulation pool for every
 * connection's claimed cells.
 *
 * The sweep server used to admit each request's miss batch under one
 * simulation mutex, so a 1-cell request could wait behind a 500-cell
 * grid. The scheduler replaces that barrier with per-cell jobs on a
 * fixed worker pool shared by all requests:
 *
 *  - Fairness: requests are tickets in FIFO admission order; workers
 *    round-robin one job at a time across the tickets that have work,
 *    so small requests interleave with (not queue behind) large grids.
 *  - Backpressure: at most max_queue_cells jobs may be queued across
 *    all tickets. submit() blocks until space frees up (counted as an
 *    admission stall), so an oversized grid admits incrementally
 *    instead of ballooning memory — and cannot deadlock, because
 *    workers only ever drain the queue.
 *  - Shared pair state: expensive per-(workload, scenario) state
 *    (mapping, lazily built page tables and the recorded access
 *    stream, CellPairState) is owned by
 *    the scheduler in a pinned LRU cache keyed by the pair plus the
 *    SimOptions fields its construction reads (seed, footprint_scale).
 *    Jobs from different requests reuse one build; entries pinned by a
 *    running job are never evicted.
 *  - Latency decoupling: each job's completion callback fires the
 *    moment the cell finishes, carrying the measured queue wait, so
 *    callers publish per cell instead of per batch.
 *
 * Determinism: jobs run through runCellJob with the ticket's options
 * forced to threads = 1 (threads is excluded from the cell key), so a
 * cell's result is byte-identical to a direct ExperimentContext run no
 * matter how requests interleave.
 */

#ifndef ANCHORTLB_SERVE_SCHEDULER_HH
#define ANCHORTLB_SERVE_SCHEDULER_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/parallel_runner.hh"

namespace atlb
{

/** Shared cross-request scheduler for simulation cells. */
class CellScheduler
{
  public:
    /**
     * Per-cell completion: the submitter's index for the job, its
     * result, and how long the job sat queued before a worker picked
     * it up. Runs on a worker thread, before the owning ticket's
     * wait() can return — callbacks may therefore write
     * submitter-owned slots without extra locking.
     */
    using Completion = std::function<void(
        std::size_t index, const SimResult &result,
        std::uint64_t queue_wait_us)>;

    /** Scheduler effectiveness counters (all monotonic except the
     *  instantaneous depth/running/pairs_cached). */
    struct Stats
    {
        std::uint64_t enqueued = 0;  //!< jobs ever admitted
        std::uint64_t completed = 0; //!< jobs finished (callback ran)
        /** submit() calls that had to block on a full queue. */
        std::uint64_t admission_stalls = 0;
        std::uint64_t depth = 0;      //!< queued, not yet running
        std::uint64_t depth_peak = 0; //!< high-water mark of depth
        std::uint64_t running = 0;    //!< executing right now
        std::uint64_t tickets_open = 0;
        std::uint64_t pair_builds = 0; //!< CellPairState constructions
        std::uint64_t pair_reuses = 0; //!< jobs that found one cached
        std::uint64_t pairs_cached = 0;
    };

    /**
     * One request's handle on the scheduler. submit() cells, then
     * wait(); the destructor waits too, so a ticket can never outrun
     * its jobs. Not thread-safe: one submitting thread per ticket
     * (completions run concurrently on workers).
     */
    class Ticket
    {
      public:
        ~Ticket();

        Ticket(const Ticket &) = delete;
        Ticket &operator=(const Ticket &) = delete;

        /**
         * Enqueue one cell; @p index is echoed to the completion
         * callback. Blocks while the scheduler-wide queue is at
         * capacity (backpressure).
         */
        void submit(std::size_t index, const CellJob &job);

        /** Block until every submitted job's callback has run. */
        void wait();

      private:
        friend class CellScheduler;
        struct State;
        Ticket(CellScheduler &scheduler, std::shared_ptr<State> state);

        CellScheduler &scheduler_;
        std::shared_ptr<State> state_;
    };

    /**
     * @p threads workers (at least 1); at most @p max_queue_cells jobs
     * queued across all tickets; at most @p max_pairs unpinned
     * CellPairState entries retained.
     */
    CellScheduler(unsigned threads, std::size_t max_queue_cells,
                  std::size_t max_pairs);

    /** Drains every queued job, then joins the workers. */
    ~CellScheduler();

    CellScheduler(const CellScheduler &) = delete;
    CellScheduler &operator=(const CellScheduler &) = delete;

    /**
     * Open a ticket for one request. @p options are the request's
     * resolved knobs (threads is overridden to 1 per job — the
     * parallelism budget is the scheduler's worker pool);
     * @p on_complete fires once per submitted job.
     */
    std::unique_ptr<Ticket> open(const SimOptions &options,
                                 Completion on_complete);

    Stats stats() const;

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    struct PairEntry;
    struct QueuedJob;

    void workerLoop();
    void submitJob(const std::shared_ptr<Ticket::State> &ticket,
                   std::size_t index, const CellJob &job);
    void waitTicket(Ticket::State &ticket);
    void closeTicket(Ticket::State &ticket);
    std::shared_ptr<PairEntry> acquirePair(const SimOptions &options,
                                           const CellJob &job);
    void releasePair(const std::shared_ptr<PairEntry> &entry);

    std::size_t max_queue_cells_;
    std::size_t max_pairs_;

    mutable std::mutex m_;
    std::condition_variable work_cv_;  //!< signalled on submit/stop
    std::condition_variable space_cv_; //!< signalled on dequeue
    std::condition_variable done_cv_;  //!< signalled on job completion
    bool stop_ = false;
    /** Tickets with queued jobs, FIFO admission order; workers take
     *  one job from the front ticket and rotate it to the back. */
    std::deque<std::shared_ptr<Ticket::State>> ring_;
    /** Pair cache: identity string -> entry (see pairCacheKey). */
    std::unordered_map<std::string, std::shared_ptr<PairEntry>> pairs_;
    std::uint64_t lru_tick_ = 0;
    Stats stats_;

    std::vector<std::thread> workers_;
};

} // namespace atlb

#endif // ANCHORTLB_SERVE_SCHEDULER_HH
