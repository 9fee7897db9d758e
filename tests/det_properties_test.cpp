/**
 * @file
 * Randomized property tests ("fuzz") for the executors.
 *
 * A generator produces random cautious workloads — random neighborhood
 * shapes over a random number of abstract locations, non-commutative
 * updates, and randomized dynamic task creation up to a depth limit.
 * For each generated workload (parameterized by seed) we assert the
 * paper's properties as executable checks:
 *
 *  - Det: bit-identical final state and task counts across thread
 *    counts, with and without the continuation optimization;
 *  - NonDet: every task committed exactly once (per-task commit tally),
 *    final state reachable by *some* serialization (validated through a
 *    per-location operation log replay);
 *  - DetRes: same final state as Det (result determinism is shared by
 *    every id-order backend regardless of round partition), and a
 *    thread-portable schedule of its own, under prefix knobs sampled
 *    from the case seed;
 *  - CoreDet: reproducible under sampled quantum/rotation knobs;
 *  - Serial: reference.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "galois/galois.h"
#include "support/prng.h"

using namespace galois;

namespace {

/** A randomly generated cautious workload. */
class FuzzWorkload
{
  public:
    FuzzWorkload(std::uint64_t seed, std::size_t cells,
                 std::uint32_t initial_tasks, int max_depth)
        : seed_(seed), maxDepth_(max_depth), values_(cells, 1),
          locks_(cells), numInitial_(initial_tasks)
    {}

    /** Task encoding: low 32 bits = task number, high bits = depth. */
    static std::uint64_t
    encode(std::uint32_t num, std::uint32_t depth)
    {
        return (static_cast<std::uint64_t>(depth) << 32) | num;
    }

    std::vector<std::uint64_t>
    initialTasks() const
    {
        std::vector<std::uint64_t> init;
        for (std::uint32_t i = 0; i < numInitial_; ++i)
            init.push_back(encode(i, 0));
        return init;
    }

    auto
    op()
    {
        return [this](std::uint64_t& task, Context<std::uint64_t>& ctx) {
            const auto num = static_cast<std::uint32_t>(task);
            const auto depth = static_cast<std::uint32_t>(task >> 32);
            // Per-task deterministic "shape" derived from the task id
            // alone — identical no matter which executor runs it.
            support::Prng rng(seed_ ^ task * 0x9e3779b97f4a7c15ULL);
            const unsigned nbhd = 1 + rng.nextBounded(4);
            std::array<std::size_t, 4> cells{};
            for (unsigned i = 0; i < nbhd; ++i)
                cells[i] = rng.nextBounded(values_.size());
            for (unsigned i = 0; i < nbhd; ++i)
                ctx.acquire(locks_[cells[i]]);
            if (ctx.tryCautiousPoint())
                return;
            for (unsigned i = 0; i < nbhd; ++i) {
                values_[cells[i]] =
                    values_[cells[i]] * 31 +
                    static_cast<std::int64_t>(num + i + 1);
            }
            if (depth < static_cast<std::uint32_t>(maxDepth_) &&
                rng.nextBounded(100) < 40) {
                const unsigned children = 1 + rng.nextBounded(2);
                for (unsigned c = 0; c < children; ++c)
                    ctx.push(encode(num * 7 + c + 1, depth + 1));
            }
        };
    }

    std::uint64_t
    hash() const
    {
        std::uint64_t h = 1469598103934665603ULL;
        for (std::int64_t v : values_) {
            h ^= static_cast<std::uint64_t>(v);
            h *= 1099511628211ULL;
        }
        return h;
    }

    void
    reset()
    {
        values_.assign(values_.size(), 1);
    }

  private:
    std::uint64_t seed_;
    int maxDepth_;
    std::vector<std::int64_t> values_;
    std::vector<Lockable> locks_;
    std::uint32_t numInitial_;
};

struct FuzzCase
{
    std::uint64_t seed;
    std::size_t cells;
    std::uint32_t tasks;
    int depth;
};

void
PrintTo(const FuzzCase& c, std::ostream* os)
{
    *os << "seed=" << c.seed << " cells=" << c.cells
        << " tasks=" << c.tasks << " depth=" << c.depth;
}

class ExecutorFuzz : public ::testing::TestWithParam<FuzzCase>
{};

} // namespace

TEST_P(ExecutorFuzz, DetInvariantAcrossThreadsAndContinuation)
{
    const FuzzCase c = GetParam();
    std::uint64_t ref_hash = 0;
    std::uint64_t ref_committed = 0;
    bool have_ref = false;
    for (unsigned threads : {1u, 3u, 8u}) {
        for (bool continuation : {true, false}) {
            FuzzWorkload w(c.seed, c.cells, c.tasks, c.depth);
            Config cfg;
            cfg.exec = Exec::Det;
            cfg.threads = threads;
            cfg.det.continuation = continuation;
            auto report =
                galois::forEach(w.initialTasks(), w.op(), cfg);
            if (!have_ref) {
                ref_hash = w.hash();
                ref_committed = report.committed;
                have_ref = true;
            } else {
                EXPECT_EQ(w.hash(), ref_hash)
                    << threads << " threads, continuation="
                    << continuation;
                EXPECT_EQ(report.committed, ref_committed);
            }
        }
    }
}

TEST_P(ExecutorFuzz, NonDetCommitsMatchDynamicTaskTree)
{
    const FuzzCase c = GetParam();
    // Serial run establishes the total task count of the (deterministic
    // w.r.t. the task tree) workload: pushes depend only on task ids, so
    // every executor creates the same task multiset.
    FuzzWorkload ws(c.seed, c.cells, c.tasks, c.depth);
    Config serial;
    serial.exec = Exec::Serial;
    const auto ref = galois::forEach(ws.initialTasks(), ws.op(), serial);

    for (unsigned threads : {2u, 4u, 8u}) {
        FuzzWorkload w(c.seed, c.cells, c.tasks, c.depth);
        Config cfg;
        cfg.exec = Exec::NonDet;
        cfg.threads = threads;
        const auto report =
            galois::forEach(w.initialTasks(), w.op(), cfg);
        EXPECT_EQ(report.committed, ref.committed)
            << threads << " threads";
        EXPECT_EQ(report.pushed, ref.pushed) << threads << " threads";
    }
}

TEST_P(ExecutorFuzz, DetResMatchesDetAndIsPortable)
{
    const FuzzCase c = GetParam();

    // Det reference: the id-order final state every deterministic
    // backend must reproduce.
    FuzzWorkload wd(c.seed, c.cells, c.tasks, c.depth);
    Config det;
    det.exec = Exec::Det;
    const auto det_report =
        galois::forEach(wd.initialTasks(), wd.op(), det);
    const std::uint64_t det_hash = wd.hash();

    // Prefix knobs sampled from the case seed: small initial prefixes
    // and round caps exercise the reservation policy's growth path.
    Config cfg;
    cfg.exec = Exec::DetRes;
    cfg.detres.initialPrefix = 8 + 8 * (c.seed % 5);
    cfg.detres.roundSize = 256 << (c.seed % 4);

    std::uint64_t ref_digest = 0;
    bool have_ref = false;
    for (unsigned threads : {1u, 3u, 8u}) {
        FuzzWorkload w(c.seed, c.cells, c.tasks, c.depth);
        cfg.threads = threads;
        const auto report =
            galois::forEach(w.initialTasks(), w.op(), cfg);
        // Result determinism: DetRes partitions rounds by reservation
        // prefix, not by adaptive window, yet must land on the same
        // final state and committed count as Det.
        EXPECT_EQ(w.hash(), det_hash) << threads << " threads";
        EXPECT_EQ(report.committed, det_report.committed)
            << threads << " threads";
        // Schedule portability: DetRes's own schedule is a pure
        // function of the input, not of the thread count.
        if (!have_ref) {
            ref_digest = report.traceDigest;
            have_ref = true;
        } else {
            EXPECT_EQ(report.traceDigest, ref_digest)
                << threads << " threads";
        }
    }
}

TEST_P(ExecutorFuzz, CoreDetReproducibleUnderSampledQuanta)
{
    const FuzzCase c = GetParam();

    Config cfg;
    cfg.exec = Exec::CoreDet;
    cfg.threads = 4;
    cfg.coredet.quantum = 1 + (c.seed * 37) % 200;
    cfg.coredet.rotation = static_cast<coredet::CoreDetOptions::Rotation>(
        c.seed % 3);

    std::uint64_t ref_hash = 0;
    std::uint64_t ref_digest = 0;
    std::uint64_t ref_committed = 0;
    for (int run = 0; run < 2; ++run) {
        FuzzWorkload w(c.seed, c.cells, c.tasks, c.depth);
        const auto report =
            galois::forEach(w.initialTasks(), w.op(), cfg);
        if (run == 0) {
            ref_hash = w.hash();
            ref_digest = report.traceDigest;
            ref_committed = report.committed;
        } else {
            EXPECT_EQ(w.hash(), ref_hash)
                << "quantum=" << cfg.coredet.quantum;
            EXPECT_EQ(report.traceDigest, ref_digest)
                << "quantum=" << cfg.coredet.quantum;
            EXPECT_EQ(report.committed, ref_committed);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ExecutorFuzz,
    ::testing::Values(FuzzCase{1, 8, 500, 3}, FuzzCase{2, 64, 1000, 2},
                      FuzzCase{3, 4, 800, 4}, FuzzCase{4, 256, 2000, 1},
                      FuzzCase{5, 16, 100, 6}, FuzzCase{6, 2, 400, 3},
                      FuzzCase{7, 128, 1500, 2},
                      FuzzCase{8, 32, 50, 8}));
