/**
 * @file
 * How a memory buffer survives a lost memory completion (CmdWatchdog)
 * and what a flush waits for (FlushFence, paper §4.2). MBS and the
 * Centaur baseline share both; each supplies only how to re-issue a
 * tag's access, how to answer the host for a reclaimed tag and how to
 * finish a flush. A flush's older writes come from mem::LineOrder.
 */

#ifndef CONTUTTO_MEM_CMD_WATCHDOG_HH
#define CONTUTTO_MEM_CMD_WATCHDOG_HH

#include <array>
#include <vector>

#include "dmi/command.hh"
#include "firmware/error_log.hh"
#include "sim/sim_object.hh"

namespace contutto::mem
{

/** What a buffer does to one command tag. */
using TagAction = InplaceFunction<void(unsigned), sizeof(void *)>;

/**
 * The per-tag command watchdog. Each memory access arms one timer; on
 * expiry the access is re-issued with exponential backoff (timeout <<
 * retries), and after maxRetries the tag is reclaimed: counted,
 * warned, logged unrecoverable, and handed back to the buffer to
 * answer the host. A per-issue generation makes stale completions and
 * stale timeouts harmless.
 */
class CmdWatchdog
{
  public:
    /** Far above any legitimate access latency, even with a saturated
     *  64-deep controller queue, so only genuine losses trip it. */
    static constexpr Tick defaultTimeout = microseconds(20);
    /** Re-issues before a stuck tag is reclaimed. */
    static constexpr unsigned maxRetries = 3;

    /** The counters, embedded in the owning buffer's stats. */
    struct Stats
    {
        /** @param access the buffer's word for one access. */
        Stats(stats::StatGroup *g, const std::string &access)
            : cmdTimeouts(g, "cmdTimeouts", "command watchdog expirations"),
              cmdRetries(g, "cmdRetries", access + " accesses re-issued"),
              tagsReclaimed(g, "tagsReclaimed", "stuck tags forcibly freed"),
              droppedCompletions(
                  g, "droppedCompletions",
                  access + " completions lost to injected stalls")
        {}

        stats::Scalar cmdTimeouts;        ///< Watchdog expirations.
        stats::Scalar cmdRetries;         ///< Accesses re-issued.
        stats::Scalar tagsReclaimed;      ///< Tags freed by force.
        stats::Scalar droppedCompletions; ///< Injected stalls consumed.
    };

    /** @param errorLog the owner's FSP log pointer, read at reclaim
     *         time (null: not logged).
     *  @param timeout 0 arms no timers: a lost completion hangs. */
    CmdWatchdog(SimObject &owner, firmware::ErrorLog *const &errorLog,
                Stats &stats, Tick timeout, TagAction reissue,
                TagAction answerReclaimed)
        : owner_(owner), errorLog_(errorLog), stats_(stats),
          timeout_(timeout), reissue_(std::move(reissue)),
          answerReclaimed_(std::move(answerReclaimed))
    {}

    /** Fault injection: swallow the next @p n live completions. */
    void stallNextCompletions(unsigned n) { stallBudget_ += n; }

    /** @p tag issues its access: returns the generation its
     *  completion must present. */
    std::uint32_t
    arm(unsigned tag)
    {
        Tag &t = tags_[tag];
        t.outstanding = true;
        if (timeout_ == 0)
            return t.gen;
        std::uint32_t gen = t.gen = ++genCounter_;
        OneShotEvent::schedule(owner_.eventq(),
                               owner_.curTick() + (timeout_ << t.retries),
                               [this, tag, gen] { expire(tag, gen); });
        return gen;
    }

    /** True when a completion of issue @p gen is live and not
     *  swallowed; it ends the access. Retries carry on to the tag's
     *  next access (an RMW's write half) until release(). */
    bool
    complete(unsigned tag, std::uint32_t gen)
    {
        Tag &t = tags_[tag];
        if (!t.outstanding || t.gen != gen)
            return false;
        if (stallBudget_ > 0) {
            --stallBudget_;
            ++stats_.droppedCompletions;
            return false;
        }
        t.outstanding = false;
        return true;
    }

    /** @p tag's command finished. */
    void release(unsigned tag) { tags_[tag] = Tag{}; }

    /** Power cut: drop every access, but keep the generations so
     *  completions issued before the cut stay stale. */
    void
    abandonAll()
    {
        for (Tag &t : tags_)
            t = Tag{false, t.gen, 0};
    }

    /** @{ Generation counter, stall budget, per-tag generations.
     *  Only legal with no access outstanding. */
    void
    checkpointSave(ckpt::Section &out) const
    {
        out.putU32(genCounter_);
        out.putU32(stallBudget_);
        out.putU32(std::uint32_t(tags_.size()));
        for (const Tag &t : tags_) {
            ct_assert(!t.outstanding);
            out.putU32(t.gen);
        }
    }

    void
    checkpointRestore(ckpt::Section &in)
    {
        genCounter_ = in.getU32();
        stallBudget_ = in.getU32();
        if (in.getU32() != tags_.size())
            throw ckpt::Error("command watchdog tag count mismatch");
        for (Tag &t : tags_)
            t.gen = in.getU32();
    }
    /** @} */

  private:
    struct Tag
    {
        bool outstanding = false;
        std::uint32_t gen = 0;
        unsigned retries = 0;
    };

    void
    expire(unsigned tag, std::uint32_t gen)
    {
        Tag &t = tags_[tag];
        if (!t.outstanding || t.gen != gen)
            return; // the access completed, or the tag moved on
        ++stats_.cmdTimeouts;
        if (t.retries < maxRetries) {
            ++t.retries;
            ++stats_.cmdRetries;
            reissue_(tag);
            return;
        }
        ++stats_.tagsReclaimed;
        warn("%s: reclaiming tag %u after %u retries",
             owner_.name().c_str(), tag, t.retries);
        if (errorLog_)
            errorLog_->record(owner_.curTick(), owner_.name(),
                              firmware::Severity::unrecoverable,
                              "command tag " + std::to_string(tag)
                                  + " reclaimed after retry exhaustion");
        release(tag);
        answerReclaimed_(tag);
    }

    SimObject &owner_;
    firmware::ErrorLog *const &errorLog_;
    Stats &stats_;
    Tick timeout_;
    TagAction reissue_;
    TagAction answerReclaimed_;
    std::array<Tag, dmi::numTags> tags_{};
    std::uint32_t genCounter_ = 0;
    unsigned stallBudget_ = 0;
};

/** Pending flushes in arrival order, each waiting on older writes. */
class FlushFence
{
  public:
    /** Bit t set: tag t is an older write the flush outwaits. */
    using TagMask = std::uint32_t;
    static_assert(dmi::numTags <= 32);

    /** @param finish completes the flush command holding a tag. */
    explicit FlushFence(TagAction finish) : finish_(std::move(finish))
    {
        pending_.reserve(dmi::numTags); // never allocates again
    }

    /** Fence flush @p tag; with no older write it finishes now. */
    void
    add(unsigned tag, TagMask olderWrites)
    {
        if (olderWrites == 0)
            finish_(tag);
        else
            pending_.push_back(Pending{tag, olderWrites});
    }

    /** Write @p tag reached memory (or was written off): finish, in
     *  list order, every flush left waiting on nothing. */
    void
    drained(unsigned tag)
    {
        for (std::size_t i = 0; i < pending_.size();) {
            if ((pending_[i].waitingOn &= ~(TagMask(1) << tag)) != 0) {
                ++i;
                continue;
            }
            unsigned done = pending_[i].tag;
            pending_.erase(pending_.begin() + std::ptrdiff_t(i));
            finish_(done);
        }
    }

    bool empty() const { return pending_.empty(); }
    void clear() { pending_.clear(); }

  private:
    struct Pending
    {
        unsigned tag;
        TagMask waitingOn;
    };

    TagAction finish_;
    std::vector<Pending> pending_;
};

} // namespace contutto::mem

#endif // CONTUTTO_MEM_CMD_WATCHDOG_HH
