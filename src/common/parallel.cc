#include "parallel.hh"

#include <cstdlib>

#include "common/cli.hh"

namespace alphapim
{

unsigned
parallelThreadLimit(const char *env, unsigned hw)
{
    unsigned limit = hw ? hw : 1;
    std::uint64_t v = 0;
    if (env && CliArgs::parseUnsigned(env, limit - 1, v) && v > 0)
        limit = static_cast<unsigned>(v);
    return limit;
}

unsigned
parallelMaxThreads()
{
    static const unsigned cached =
        parallelThreadLimit(std::getenv("ALPHA_PIM_THREADS"),
                            std::thread::hardware_concurrency());
    return cached;
}

namespace
{

/** Spin, yielding the core, until ready() holds or WorkerPool's spin
 * window passes; true when ready() held. */
template <typename Ready>
bool
spinFor(const Ready &ready)
{
    const auto deadline =
        std::chrono::steady_clock::now() + WorkerPool::spinWindow;
    while (!ready()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

} // namespace

WorkerPool::WorkerPool(unsigned threads)
    : threads_(threads ? threads : 1)
{
}

WorkerPool::~WorkerPool()
{
    {
        // Under the mutex, so a worker parking now sees it.
        std::lock_guard<std::mutex> lock(mutex_);
        stop_.store(true);
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

bool
WorkerPool::claim(std::size_t count)
{
    return threads_ > 1 && count >= 4 &&
           !busy_.exchange(true, std::memory_order_acquire);
}

void
WorkerPool::runClaimed(std::size_t count, Call call, const void *fn)
{
    // Free the pool on every way out, a rethrow included.
    struct Release
    {
        std::atomic<bool> &busy;
        ~Release() { busy.store(false, std::memory_order_release); }
    } release{busy_};

    // Only the pool's holder gets here, so starting the workers needs
    // no lock of its own.
    if (workers_.empty()) {
        workers_.reserve(threads_ - 1);
        for (unsigned w = 1; w < threads_; ++w)
            workers_.emplace_back([this] { work(); });
    }

    Job job{call, fn, count, {0}, nullptr};
    job_.store(&job);
    // Spinning workers see the new generation; only parked ones need
    // a wake-up. A worker checks the generation under the mutex before
    // it parks, so it is either counted here or sees this job.
    bool parked = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        generation_.fetch_add(1);
        parked = parked_ > 0;
    }
    if (parked)
        wake_.notify_all();
    drain(job);

    // Withdraw the job so no late worker enters it, then wait for
    // those inside: the job dies with this frame. A worker counts
    // itself in before it loads job_, so one that got the job is
    // counted by now.
    job_.store(nullptr);
    const auto left = [this] { return inside_.load() == 0; };
    if (!spinFor(left)) {
        std::unique_lock<std::mutex> lock(mutex_);
        left_.wait(lock, left);
    }
    if (job.error)
        std::rethrow_exception(job.error);
}

void
WorkerPool::drain(Job &job)
{
    for (;;) {
        const std::size_t i =
            job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.count)
            return;
        try {
            job.call(job.fn, i);
        } catch (...) {
            job.next.store(job.count, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(mutex_);
            if (!job.error)
                job.error = std::current_exception();
        }
    }
}

void
WorkerPool::work()
{
    std::uint64_t seen = 0;
    const auto fresh = [&] {
        return stop_.load() || generation_.load() != seen;
    };
    for (;;) {
        if (!spinFor(fresh)) {
            std::unique_lock<std::mutex> lock(mutex_);
            ++parked_;
            wake_.wait(lock, fresh);
            --parked_;
        }
        if (stop_.load())
            return;
        seen = generation_.load();
        // The job may be withdrawn already, or be a later one; either
        // way it is safe to enter once counted in.
        inside_.fetch_add(1);
        if (Job *job = job_.load())
            drain(*job);
        if (inside_.fetch_sub(1) == 1) {
            // A caller that saw this worker inside, under the mutex,
            // is waiting by the time the mutex is ours.
            std::lock_guard<std::mutex> lock(mutex_);
            left_.notify_one();
        }
    }
}

} // namespace alphapim
