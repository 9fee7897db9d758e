#include "support/barrier.h"

#include <thread>

namespace galois::support {

void
Barrier::spinUntilFlipped(std::uint32_t my_sense) const
{
#if defined(DETGALOIS_DETMC)
    if (analysis::detmc::onVthread()) {
        // Modeled wait: the exhaustive scheduler treats the parked
        // thread as blocked on this pure predicate instead of letting
        // a spin loop inflate the schedule space. A schedule where the
        // sense never flips surfaces as a deadlock with a replayable
        // trace rather than a hang.
        struct Ctx
        {
            const std::atomic<std::uint32_t>* sense;
            std::uint32_t mine;
        };
        const Ctx ctx{&sense_, my_sense};
        analysis::detmc::await(
            &sense_, "barrier.sense.spin",
            [](const void* p) {
                const auto* c = static_cast<const Ctx*>(p);
                return c->sense->load(std::memory_order_acquire) !=
                       c->mine;
            },
            &ctx);
        return;
    }
#endif
    // Spin briefly, then yield: on oversubscribed machines pure spinning
    // wastes whole scheduler quanta of the threads we are waiting for.
    int spins = 0;
    while (sense_.load(std::memory_order_acquire) == my_sense) {
        if (++spins > 64) {
            std::this_thread::yield();
        }
    }
}

} // namespace galois::support
