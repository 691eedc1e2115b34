/**
 * @file
 * A FIFO ring buffer that allocates nothing until its first push.
 *
 * std::deque gives every instance a map and a node when it is
 * constructed, even one that stays empty. A fabric holds several
 * queues per link and per port, most of them idle in a given run,
 * so the per-link and per-port queues use this ring instead: an
 * empty Ring is four words, the first push allocates a few slots,
 * and a full ring doubles. size() is a field read, not iterator
 * arithmetic.
 */

#ifndef PCIESIM_SIM_RING_HH
#define PCIESIM_SIM_RING_HH

#include <cstddef>
#include <memory>
#include <utility>

#include "sim/invariant.hh"

namespace pciesim
{

/**
 * A growable FIFO: push at the back, pop at the front, index and
 * iterate in FIFO order. The capacity is a power of two, so
 * positions wrap with a mask. Storage grows and is never given back
 * before destruction; clear() keeps it.
 */
template <class T>
class Ring
{
  public:
    Ring() = default;
    Ring(const Ring &) = delete;
    Ring &operator=(const Ring &) = delete;

    ~Ring()
    {
        clear();
        if (slots_)
            std::allocator<T>{}.deallocate(slots_, cap_);
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    /** Slots allocated (0 until the first push). */
    std::size_t capacity() const { return cap_; }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    /** Element @p i in FIFO order (0 is the front). */
    T &
    operator[](std::size_t i)
    {
        PCIESIM_AUDIT(i < size_, "ring index ", i, " of ", size_);
        return slots_[(head_ + i) & (cap_ - 1)];
    }

    const T &
    operator[](std::size_t i) const
    {
        PCIESIM_AUDIT(i < size_, "ring index ", i, " of ", size_);
        return slots_[(head_ + i) & (cap_ - 1)];
    }

    void push_back(const T &v) { emplace_back(v); }
    void push_back(T &&v) { emplace_back(std::move(v)); }

    template <class... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ == cap_)
            return growAndEmplace(std::forward<Args>(args)...);
        T *slot = std::construct_at(
            &slots_[(head_ + size_) & (cap_ - 1)],
            std::forward<Args>(args)...);
        ++size_;
        return *slot;
    }

    void
    pop_front()
    {
        PCIESIM_AUDIT(size_ > 0, "pop_front on an empty ring");
        std::destroy_at(&slots_[head_]);
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

    /** Destroy every element; the storage stays for reuse. */
    void
    clear()
    {
        while (size_ > 0)
            pop_front();
    }

    /** Replace the contents with the range [first, last). */
    template <class It>
    void
    assign(It first, It last)
    {
        clear();
        for (; first != last; ++first)
            emplace_back(*first);
    }

    /** Read-only iteration in FIFO order (range-for, assign()). */
    class ConstIterator
    {
      public:
        ConstIterator(const Ring *ring, std::size_t i)
            : ring_(ring), i_(i)
        {}

        const T &operator*() const { return (*ring_)[i_]; }

        ConstIterator &
        operator++()
        {
            ++i_;
            return *this;
        }

        bool
        operator==(const ConstIterator &o) const
        {
            return i_ == o.i_;
        }

      private:
        const Ring *ring_;
        std::size_t i_;
    };

    ConstIterator begin() const { return {this, 0}; }
    ConstIterator end() const { return {this, size_}; }

  private:
    static constexpr std::size_t firstCapacity_ = 4;

    /**
     * Full: move into storage twice the size (firstCapacity_ on the
     * first push). The new element is built first, so @p args may
     * refer to an element of this ring.
     */
    template <class... Args>
    T &
    growAndEmplace(Args &&...args)
    {
        std::size_t cap = cap_ ? 2 * cap_ : firstCapacity_;
        T *slots = std::allocator<T>{}.allocate(cap);
        T *slot = std::construct_at(&slots[size_],
                                    std::forward<Args>(args)...);
        for (std::size_t i = 0; i < size_; ++i) {
            T &old = slots_[(head_ + i) & (cap_ - 1)];
            std::construct_at(&slots[i], std::move(old));
            std::destroy_at(&old);
        }
        if (slots_)
            std::allocator<T>{}.deallocate(slots_, cap_);
        slots_ = slots;
        cap_ = cap;
        head_ = 0;
        ++size_;
        return *slot;
    }

    T *slots_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace pciesim

#endif // PCIESIM_SIM_RING_HH
