/**
 * @file
 * Host-side worker pool used to simulate independent DPUs
 * concurrently. Work items must be mutually independent; results must
 * be written to per-item slots so the outcome is deterministic
 * regardless of thread count.
 *
 * A WorkerPool keeps threads - 1 workers between jobs (spinning, then
 * parked), so a job costs at most a wake-up, not a thread spawn and
 * join; the calling thread drains items too. Each UpmemSystem owns
 * one (copies share it), sized by default to the machine's hardware
 * concurrency capped with the ALPHA_PIM_THREADS environment variable
 * (ALPHA_PIM_THREADS=1 forces serial execution -- useful for
 * profiling, debugging under a sanitizer, or pinning CI noise). The
 * variable is read once per process.
 */

#ifndef ALPHA_PIM_COMMON_PARALLEL_HH
#define ALPHA_PIM_COMMON_PARALLEL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace alphapim
{

/**
 * Combine the hardware thread count with an ALPHA_PIM_THREADS-style
 * override. `env` is the raw variable value (nullptr when unset);
 * only a positive decimal integer (digits only, the whole token)
 * lowers the limit -- empty strings, signs, spaces, garbage, zero,
 * and values above `hw` are ignored. Pure so tests can exercise the
 * parse without mutating the process environment.
 */
unsigned parallelThreadLimit(const char *env, unsigned hw);

/**
 * Default thread count of a WorkerPool: the smaller of hardware
 * concurrency and ALPHA_PIM_THREADS (when set to a positive integer;
 * other values are ignored). Read once and cached.
 */
unsigned parallelMaxThreads();

/**
 * Persistent threads for data-parallel loops. run(count, fn) calls
 * fn(i) once for every i in [0, count) and returns when all calls
 * have finished. The caller and the workers take indices from one
 * atomic counter, so which thread runs an item is unspecified.
 *
 * One job runs on the pool at a time. A run() made while the pool is
 * busy -- nested inside an item, or from a second thread -- runs its
 * items serially on its own caller, as do counts below four and a
 * one-thread pool. The workers start with the first job that needs
 * them and are joined by the destructor, which must not race a run().
 * When an item throws, no further items start and run() rethrows the
 * first exception once every thread has left the job.
 *
 * Between jobs a worker spins, yielding, for spinWindow before it
 * parks, and the caller wakes only parked workers; a caller whose
 * items are done spins as long for the last worker to leave before it
 * blocks. So jobs that follow one another within the window, like a
 * traversal's launches, never wait on a futex.
 */
class WorkerPool
{
  public:
    /** How long a worker spins for the next job, and a caller for the
     * last worker to leave, before blocking. It covers a launching
     * thread's serial work between two launches. */
    static constexpr std::chrono::microseconds spinWindow{200};

    /** A pool whose jobs use up to `threads` threads, the caller
     * included (0 counts as 1). */
    explicit WorkerPool(unsigned threads = parallelMaxThreads());
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Run fn(i) for every i in [0, count). */
    template <typename Fn>
    void
    run(std::size_t count, Fn &&fn)
    {
        if (!claim(count)) {
            for (std::size_t i = 0; i < count; ++i)
                fn(i);
            return;
        }
        using F = std::remove_reference_t<Fn>;
        runClaimed(count,
                   [](const void *ctx, std::size_t i) {
                       (*static_cast<F *>(const_cast<void *>(ctx)))(i);
                   },
                   std::addressof(fn));
    }

  private:
    /** Type-erased item call: fn(i) through a pointer to fn. */
    using Call = void (*)(const void *fn, std::size_t i);

    /** One job; it lives on the caller's stack. */
    struct Job
    {
        Call call;
        const void *fn;
        std::size_t count;
        std::atomic<std::size_t> next{0};
        std::exception_ptr error; ///< first throw; guarded by mutex_
    };

    /** True when this call takes the pool for a parallel job. */
    bool claim(std::size_t count);

    /** Publish a claimed job, drain it, wait for every worker to
     * leave it, release the pool, and rethrow the job's error. */
    void runClaimed(std::size_t count, Call call, const void *fn);

    /** Take and run items until none are left or one throws. */
    void drain(Job &job);

    /** A worker's loop: spin, then park, until a new job or
     * shutdown. */
    void work();

    const unsigned threads_;
    std::atomic<bool> busy_{false};

    std::atomic<Job *> job_{nullptr};          ///< the published job
    std::atomic<std::uint64_t> generation_{0}; ///< jobs published so far
    std::atomic<unsigned> inside_{0};          ///< workers in a job
    std::atomic<bool> stop_{false};

    std::mutex mutex_;
    std::condition_variable wake_; ///< parked workers: a job or shutdown
    std::condition_variable left_; ///< blocked caller: last worker left
    unsigned parked_ = 0;          ///< workers on wake_; guarded by mutex_

    std::vector<std::thread> workers_; ///< started by the first job
};

} // namespace alphapim

#endif // ALPHA_PIM_COMMON_PARALLEL_HH
