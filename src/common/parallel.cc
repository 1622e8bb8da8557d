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

WorkerPool::WorkerPool(unsigned threads)
    : threads_(threads ? threads : 1)
{
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
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
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &job;
        ++generation_;
    }
    wake_.notify_all();
    drain(job);
    {
        // Withdraw the job so no late worker enters it, then wait for
        // those inside: the job dies with this frame.
        std::unique_lock<std::mutex> lock(mutex_);
        job_ = nullptr;
        left_.wait(lock, [this] { return inside_ == 0; });
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
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [&] {
            return stop_ || (job_ != nullptr && generation_ != seen);
        });
        if (stop_)
            return;
        seen = generation_;
        Job &job = *job_;
        ++inside_;
        lock.unlock();
        drain(job);
        lock.lock();
        if (--inside_ == 0)
            left_.notify_one();
    }
}

} // namespace alphapim
