/**
 * @file
 * Reference-model property test for EventQueue.
 *
 * The test applies the same random operations to an EventQueue and
 * to a std::set ordered by the queue's (when, order, tie) key, and
 * checks after every operation that both pop the same event and
 * agree on nextTick() and size(). Operations include schedule,
 * deschedule and reschedule (also from inside a firing event, on
 * itself and on others), same-tick bursts, and in keyed mode
 * scheduleKeyed / scheduleEarliestKeyed with foreign keys. Queue
 * sizes sweep from empty through the near/far tier boundary up to
 * 5,000 pending events and back to empty.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

using namespace pciesim;

namespace
{

/** (when, order, tie, event id); the first three are unique. */
using Key = std::tuple<Tick, std::uint64_t, std::uint64_t, unsigned>;

/** Tiebreak domain of the queue under test in keyed mode. */
constexpr unsigned localDomain = 3;
/** Domain that "sends" scheduleKeyed / scheduleEarliestKeyed. */
constexpr std::uint64_t foreignTieBase = std::uint64_t{7} << 48;

class ModelRun;

class ModelEvent : public Event
{
  public:
    ModelEvent(ModelRun *run, unsigned id)
        : Event("model.event"), run_(run), id_(id)
    {}

    void process() override;

  private:
    ModelRun *run_;
    unsigned id_;
};

class ModelRun
{
  public:
    ModelRun(std::uint64_t seed, bool keyed, unsigned num_events)
        : rng_(seed), keyed_(keyed), keys_(num_events)
    {
        if (keyed_)
            q_.configureParallelKeys(localDomain);
        for (unsigned i = 0; i < num_events; ++i)
            events_.push_back(std::make_unique<ModelEvent>(this, i));
    }

    ~ModelRun()
    {
        for (auto &e : events_) {
            if (e->scheduled())
                q_.deschedule(e.get());
        }
    }

    /** Grow to @p peak pending events, then drain to empty. */
    void
    sweep(std::size_t peak)
    {
        while (model_.size() < peak && !failed())
            growOp();
        while (!model_.empty() && !failed())
            drainOp();
        if (failed())
            return;
        EXPECT_FALSE(q_.step());
        check();
    }

    /** The model pops its minimum; it must be the firing event. */
    void
    fired(unsigned id)
    {
        ++pops_;
        if (model_.empty()) {
            ADD_FAILURE() << "queue fired event " << id
                          << " but the model is empty";
            return;
        }
        const Key top = *model_.begin();
        model_.erase(model_.begin());
        keys_[std::get<3>(top)].reset();
        EXPECT_EQ(std::get<3>(top), id) << "pop " << pops_;
        EXPECT_EQ(std::get<0>(top), q_.curTick()) << "pop " << pops_;
        curTick_ = std::get<0>(top);
        EXPECT_FALSE(events_[id]->scheduled());
        check();

        // Mutate from inside the firing event, on itself and others.
        if (pick(10) < 3) {
            switch (pick(6)) {
            case 0:
            case 1:
                reschedule(id, randomWhen());
                break;
            case 2:
                schedule(id, randomWhen());
                if (pick(2) == 0)
                    deschedule(id);
                break;
            case 3:
                if (keyed_)
                    scheduleEarliest(id, randomWhen());
                else
                    reschedule(id, curTick_);
                break;
            default:
                otherOp();
                break;
            }
        }
    }

    std::size_t pops() const { return pops_; }
    std::size_t maxSize() const { return maxSize_; }

  private:
    unsigned
    pick(std::size_t n)
    {
        return static_cast<unsigned>(rng_() % n);
    }

    Tick
    randomWhen()
    {
        const unsigned r = pick(20);
        if (r < 5)
            return curTick_;
        if (r < 13)
            return curTick_ + 1 + pick(100);
        if (r < 18)
            return curTick_ + 100 + pick(10'000);
        return curTick_ + 10'000 + pick(1'000'000);
    }

    Key
    localKey(Tick when, unsigned id)
    {
        if (keyed_) {
            return {when, curTick_,
                    (std::uint64_t{localDomain} << 48) | tieSeq_++, id};
        }
        return {when, order_++, 0, id};
    }

    Key
    foreignKey(Tick when, unsigned id)
    {
        const Tick key_order = curTick_ - (curTick_ > 0 ? pick(3) : 0);
        return {when, key_order, foreignTieBase | foreignSerial_++, id};
    }

    void
    enter(const Key &k)
    {
        keys_[std::get<3>(k)] = k;
        model_.insert(k);
    }

    void
    leave(unsigned id)
    {
        model_.erase(*keys_[id]);
        keys_[id].reset();
    }

    void
    schedule(unsigned id, Tick when)
    {
        if (keys_[id])
            return;
        q_.schedule(events_[id].get(), when);
        enter(localKey(when, id));
        check();
    }

    void
    reschedule(unsigned id, Tick when)
    {
        q_.reschedule(events_[id].get(), when);
        if (keys_[id])
            leave(id);
        enter(localKey(when, id));
        check();
    }

    void
    deschedule(unsigned id)
    {
        if (!keys_[id])
            return;
        q_.deschedule(events_[id].get());
        leave(id);
        check();
    }

    void
    scheduleKeyed(unsigned id, Tick when)
    {
        if (keys_[id])
            return;
        const Key k = foreignKey(when, id);
        q_.scheduleKeyed(events_[id].get(), when, std::get<1>(k),
                         std::get<2>(k));
        enter(k);
        check();
    }

    void
    scheduleEarliest(unsigned id, Tick when)
    {
        const Key k = foreignKey(when, id);
        q_.scheduleEarliestKeyed(events_[id].get(), when,
                                 std::get<1>(k), std::get<2>(k));
        if (!keys_[id]) {
            enter(k);
        } else if (when < std::get<0>(*keys_[id])) {
            leave(id);
            enter(k);
        }
        check();
    }

    void
    step()
    {
        const bool expect = !model_.empty();
        const std::size_t before = pops_;
        EXPECT_EQ(q_.step(), expect);
        EXPECT_EQ(pops_, before + (expect ? 1 : 0));
        check();
    }

    /** Same-tick burst of up to 64 idle events. */
    void
    burst()
    {
        const Tick when = randomWhen();
        const unsigned n = 2 + pick(63);
        for (unsigned i = 0; i < n; ++i) {
            const unsigned id = pick(keys_.size());
            if (keyed_ && pick(2) == 0)
                scheduleKeyed(id, when);
            else
                schedule(id, when);
        }
    }

    /** A schedule-side or cancel-side operation on a random event. */
    void
    otherOp()
    {
        const unsigned id = pick(keys_.size());
        switch (pick(keyed_ ? 6 : 4)) {
        case 0:
            schedule(id, randomWhen());
            break;
        case 1:
            reschedule(id, randomWhen());
            break;
        case 2:
            deschedule(id);
            break;
        case 3:
            if (keys_[id])
                reschedule(id, randomWhen());
            break;
        case 4:
            scheduleKeyed(id, randomWhen());
            break;
        default:
            scheduleEarliest(id, randomWhen());
            break;
        }
    }

    void
    growOp()
    {
        const unsigned r = pick(20);
        if (r < 10)
            schedule(pick(keys_.size()), randomWhen());
        else if (r < 11)
            burst();
        else if (r < 16)
            otherOp();
        else
            step();
    }

    void
    drainOp()
    {
        if (pick(20) < 13)
            step();
        else
            otherOp();
    }

    void
    check()
    {
        ASSERT_EQ(q_.size(), model_.size()) << "after pop " << pops_;
        const Tick expect =
            model_.empty() ? maxTick : std::get<0>(*model_.begin());
        ASSERT_EQ(q_.nextTick(), expect) << "after pop " << pops_;
        ASSERT_EQ(q_.empty(), model_.empty());
        if (model_.size() > maxSize_)
            maxSize_ = model_.size();
    }

    bool failed() const { return ::testing::Test::HasFailure(); }

    std::mt19937_64 rng_;
    bool keyed_;
    EventQueue q_;
    std::set<Key> model_;
    std::vector<std::optional<Key>> keys_;
    std::vector<std::unique_ptr<ModelEvent>> events_;
    Tick curTick_ = 0;
    std::uint64_t order_ = 0;
    std::uint64_t tieSeq_ = 0;
    std::uint64_t foreignSerial_ = 0;
    std::size_t pops_ = 0;
    std::size_t maxSize_ = 0;
};

void
ModelEvent::process()
{
    run_->fired(id_);
}

/** Peaks straddling the near tier's capacity, then a deep queue. */
const std::size_t peaks[] = {1, 8, 63, 64, 65, 100, 128, 300, 5000};

} // namespace

TEST(EventQueueModelTest, LegacyKeysMatchOrderedSetAcrossTierSweeps)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        ModelRun d(seed, false, 8000);
        for (std::size_t peak : peaks) {
            d.sweep(peak);
            ASSERT_FALSE(::testing::Test::HasFailure())
                << "seed " << seed << ", peak " << peak;
        }
        EXPECT_GE(d.maxSize(), 5000u);
        EXPECT_GT(d.pops(), 5000u);
    }
}

TEST(EventQueueModelTest, KeyedModeMatchesOrderedSetAcrossTierSweeps)
{
    for (std::uint64_t seed : {4u, 5u, 6u}) {
        ModelRun d(seed, true, 8000);
        for (std::size_t peak : peaks) {
            d.sweep(peak);
            ASSERT_FALSE(::testing::Test::HasFailure())
                << "seed " << seed << ", peak " << peak;
        }
        EXPECT_GE(d.maxSize(), 5000u);
        EXPECT_GT(d.pops(), 5000u);
    }
}
