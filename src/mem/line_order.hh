/**
 * @file
 * Same-line ordering for a memory buffer: a read must not pass a
 * write to its line, nor a write pass an older access. MBS and the
 * Centaur baseline share it; each says which of its commands hold a
 * line while in flight and how to re-dispatch a parked command.
 */

#ifndef CONTUTTO_MEM_LINE_ORDER_HH
#define CONTUTTO_MEM_LINE_ORDER_HH

#include <array>
#include <bit>

#include "mem/cmd_watchdog.hh"

namespace contutto::mem
{

/**
 * Admission of commands to their line, the commands parked behind an
 * older one (in arrival order), and the per-tag line holds. Fixed
 * storage for every tag: it never allocates.
 */
class LineOrder
{
  public:
    using TagMask = FlushFence::TagMask;

    /** @param redispatch runs a parked tag's command; it does not go
     *         through admit() again. */
    explicit LineOrder(TagAction redispatch)
        : redispatch_(std::move(redispatch))
    {}

    /**
     * Command @p tag of @p type to @p line arrived. A flush never
     * waits; any other command runs now (true) unless its line is
     * held or an older command already waits on it, and then it is
     * parked (false).
     */
    bool
    admit(unsigned tag, Addr line, dmi::CmdType type)
    {
        line_[tag] = line;
        if (type != dmi::CmdType::read128 && type != dmi::CmdType::flush)
            writes_ |= bit(tag);
        else
            writes_ &= ~bit(tag);
        if (type == dmi::CmdType::flush || !busy(line))
            return true;
        parked_[numParked_++] = std::uint8_t(tag);
        return false;
    }

    /** @p tag's command holds its line until release(). */
    void hold(unsigned tag) { held_ |= bit(tag); }

    /**
     * @p tag is done with its line (a no-op unless it held it): the
     * commands parked on that line are re-dispatched oldest first
     * until one of them holds the line again.
     */
    void
    release(unsigned tag)
    {
        if (!(held_ & bit(tag)))
            return;
        held_ &= ~bit(tag);
        const Addr line = line_[tag];
        for (unsigned i = 0; i < numParked_;) {
            unsigned next = parked_[i];
            if (line_[next] != line) {
                ++i;
                continue;
            }
            --numParked_;
            for (unsigned j = i; j < numParked_; ++j)
                parked_[j] = parked_[j + 1];
            redispatch_(next);
            if (held_ & bit(next))
                return;
        }
    }

    /** Write-class tags (neither read nor flush) holding their line
     *  or parked: the writes a flush arriving now must outwait. */
    TagMask
    olderWrites() const
    {
        TagMask older = held_;
        for (unsigned i = 0; i < numParked_; ++i)
            older |= bit(parked_[i]);
        return older & writes_;
    }

    /** Nothing parked and no line held. */
    bool empty() const { return numParked_ == 0 && held_ == 0; }

    /** Power cut: forget every hold and parked command. */
    void
    clear()
    {
        held_ = 0;
        numParked_ = 0;
    }

  private:
    static TagMask bit(unsigned tag) { return TagMask(1) << tag; }

    /** @p line is held, or an older command waits on it. */
    bool
    busy(Addr line) const
    {
        for (TagMask h = held_; h != 0; h &= h - 1)
            if (line_[unsigned(std::countr_zero(h))] == line)
                return true;
        for (unsigned i = 0; i < numParked_; ++i)
            if (line_[parked_[i]] == line)
                return true;
        return false;
    }

    TagAction redispatch_;
    std::array<Addr, dmi::numTags> line_{};
    TagMask writes_ = 0; ///< Tags whose command is write-class.
    TagMask held_ = 0;
    std::array<std::uint8_t, dmi::numTags> parked_{};
    unsigned numParked_ = 0;
};

} // namespace contutto::mem

#endif // CONTUTTO_MEM_LINE_ORDER_HH
