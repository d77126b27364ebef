#include "probe.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>

#include "dmi/codec.hh"
#include "dmi/crc.hh"
#include "dmi/scrambler.hh"
#include "sim/checkpoint.hh"
#include "sim/random.hh"
#include "sim/span.hh"

namespace perfbench
{

using namespace contutto;

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

HostSpans::Scope::Scope(HostSpans &owner, std::string name)
    : owner_(owner), index_(owner.spans_.size())
{
    owner_.spans_.push_back(
        Span{std::move(name), hostNow(), 0, owner_.open_});
    ++owner_.open_;
}

HostSpans::Scope::~Scope()
{
    owner_.spans_[index_].end = hostNow();
    --owner_.open_;
}

double
HostSpans::Scope::elapsed() const
{
    return hostNow() - owner_.spans_[index_].begin;
}

void
HostSpans::writeEvents(std::ostream &os) const
{
    const double t0 = spans_.empty() ? 0 : spans_.front().begin;
    for (const Span &s : spans_) {
        os << ",\n{\"name\":";
        stats::jsonEscape(s.name, os);
        os << ",\"cat\":\"host\",\"ph\":\"X\",\"ts\":";
        stats::jsonNumber((s.begin - t0) * 1e6, os);
        os << ",\"dur\":";
        stats::jsonNumber((s.end - s.begin) * 1e6, os);
        os << ",\"pid\":1,\"tid\":0,\"args\":{\"depth\":" << s.depth
           << "}}";
    }
}

namespace
{

bool
endsWith(const std::string &s, std::string_view suffix)
{
    return s.size() >= suffix.size()
        && s.compare(s.size() - suffix.size(), suffix.size(), suffix)
               == 0;
}

} // namespace

StatView::StatView(const stats::StatGroup &root)
{
    std::string digestText;
    // Depth-first in registration order: the same order toJson uses.
    auto walk = [&](auto &self, const stats::StatGroup &g,
                    const std::string &prefix, bool modelled) -> void {
        const std::string path = prefix.empty()
            ? g.groupName()
            : prefix + "." + g.groupName();
        modelled = modelled && g.groupName() != "eventq";
        for (const stats::StatBase *s : g.ownStats()) {
            Entry e;
            e.path = path + "." + s->name();
            if (auto *sc = dynamic_cast<const stats::Scalar *>(s)) {
                e.value = sc->value();
            } else if (auto *v = dynamic_cast<const stats::Value *>(s)) {
                e.value = v->value();
            } else if (auto *d =
                           dynamic_cast<const stats::Distribution *>(s)) {
                e.distribution = true;
                e.value = d->sum();
                e.count = double(d->count());
            } else if (auto *h =
                           dynamic_cast<const stats::Histogram *>(s)) {
                e.distribution = true;
                e.value = h->mean() * double(h->count());
                e.count = double(h->count());
            }
            if (modelled) {
                std::ostringstream os;
                s->json(os);
                digestText += e.path;
                digestText += ' ';
                digestText += os.str();
                digestText += '\n';
            }
            entries_.push_back(std::move(e));
        }
        for (const stats::StatGroup *c : g.children())
            self(self, *c, path, modelled);
    };
    walk(walk, root, "", true);
    digest_ = ckpt::fnv1a(digestText.data(), digestText.size());
}

double
StatView::sum(std::string_view suffix) const
{
    double total = 0;
    for (const Entry &e : entries_)
        if (!e.distribution && endsWith(e.path, suffix))
            total += e.value;
    return total;
}

double
StatView::distCount(std::string_view suffix) const
{
    double total = 0;
    for (const Entry &e : entries_)
        if (e.distribution && endsWith(e.path, suffix))
            total += e.count;
    return total;
}

double
StatView::distSum(std::string_view suffix) const
{
    double total = 0;
    for (const Entry &e : entries_)
        if (e.distribution && endsWith(e.path, suffix))
            total += e.value;
    return total;
}

double
statsToJson(const stats::StatGroup &root, std::string &out)
{
    const double t0 = hostNow();
    std::ostringstream os;
    stats::toJson(root, os);
    out = os.str();
    return hostNow() - t0;
}

StageBreakdown
stageBreakdown()
{
    StageBreakdown out;
    std::set<TraceId> ids;
    for (const span::Span &s : span::snapshot())
        ids.insert(s.id);
    std::map<std::string, Tick> total;
    for (TraceId id : ids) {
        const span::Breakdown b = span::breakdown(id);
        bool host = false;
        bool block = false;
        for (const span::StageTime &st : b.stages) {
            total[st.stage] += st.exclusive;
            host = host || st.stage == "host";
            block = block || st.stage == "pmem.block";
        }
        out.tracedHostOps += host;
        out.tracedBlockOps += block;
    }
    for (const auto &[stage, ticks] : total) {
        const bool pmem = stage.compare(0, 5, "pmem.") == 0;
        const double ops =
            double(pmem ? out.tracedBlockOps : out.tracedHostOps);
        out.nsPerOp[stage] = ops > 0 ? ticksToNs(ticks) / ops : 0;
    }
    return out;
}

namespace
{

/**
 * Seconds per item of @p body over @p items items: the median of
 * five timed repetitions, each repeated until it lasts 20 ms.
 */
template <typename Body>
double
timePerItem(std::size_t items, Body &&body)
{
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
        std::uint64_t rounds = 0;
        const double t0 = hostNow();
        double t1 = t0;
        do {
            body();
            ++rounds;
            t1 = hostNow();
        } while (t1 - t0 < 0.02);
        reps.push_back((t1 - t0) / double(rounds * items));
    }
    return median(reps);
}

dmi::CacheLine
randomLine(Rng &rng)
{
    dmi::CacheLine line{};
    for (auto &b : line)
        b = std::uint8_t(rng.next());
    return line;
}

} // namespace

DmiCalibration
calibrateDmi(double readShare, double downShare, std::uint64_t seed,
             HostSpans &spans)
{
    Rng rng(seed ^ 0xd311ca1bull);
    constexpr std::size_t numOps = 1024;

    // The op mix and its frames, as the link would carry them.
    std::vector<dmi::MemCommand> cmds;
    std::vector<dmi::MemResponse> resps;
    std::vector<dmi::WireFrame> down, up;
    for (std::size_t i = 0; i < numOps; ++i) {
        dmi::MemCommand c;
        c.type = rng.uniform() < readShare ? dmi::CmdType::read128
                                           : dmi::CmdType::write128;
        c.tag = std::uint8_t(i % dmi::numTags);
        c.addr = (rng.next() & 0xffffffffull) * dmi::cacheLineSize;
        if (c.type == dmi::CmdType::write128)
            c.data = randomLine(rng);
        dmi::MemResponse r;
        r.tag = c.tag;
        if (c.type == dmi::CmdType::read128) {
            r.type = dmi::RespType::readData;
            r.data = randomLine(rng);
        }
        for (const dmi::DownFrame &f : dmi::encodeCommand(c))
            down.push_back(f.serialize());
        for (const dmi::UpFrame &f : dmi::encodeResponse(r))
            up.push_back(f.serialize());
        cmds.push_back(c);
        resps.push_back(r);
        if (r.type == dmi::RespType::readData) {
            // A read's tag frees with a done after its data.
            dmi::MemResponse done;
            done.tag = c.tag;
            for (const dmi::UpFrame &f : dmi::encodeResponse(done))
                up.push_back(f.serialize());
        }
    }
    // Frames in the workload's downstream/upstream proportion.
    std::vector<dmi::WireFrame> frames;
    for (std::size_t i = 0; i < 4096; ++i) {
        const auto &pool = rng.uniform() < downShare ? down : up;
        frames.push_back(pool[rng.below(pool.size())]);
    }

    DmiCalibration cal;
    volatile std::uint64_t sink = 0;
    {
        HostSpans::Scope s(spans, "calib.dmi.crc16");
        cal.crcNsPerFrame = 1e9 * timePerItem(frames.size(), [&] {
            std::uint64_t acc = 0;
            for (const dmi::WireFrame &w : frames)
                acc += dmi::crc16(w.bytes.data(), w.len - 2u);
            sink = sink + acc;
        });
    }
    {
        HostSpans::Scope s(spans, "calib.dmi.scramble");
        std::vector<dmi::WireFrame> work = frames;
        dmi::Scrambler scr;
        cal.scrambleNsPerFrame = 1e9 * timePerItem(work.size(), [&] {
            for (dmi::WireFrame &w : work)
                scr.apply(w.bytes.data(), w.len);
            sink = sink + scr.state();
        });
    }
    {
        HostSpans::Scope s(spans, "calib.dmi.codec");
        dmi::CommandAssembler cmdAsm;
        dmi::ResponseAssembler respAsm;
        cal.codecNsPerOp = 1e9 * timePerItem(numOps, [&] {
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < numOps; ++i) {
                for (const dmi::DownFrame &f : dmi::encodeCommand(cmds[i]))
                    acc += cmdAsm.feed(f).has_value();
                for (const dmi::UpFrame &f : dmi::encodeResponse(resps[i]))
                    acc += respAsm.feed(f).size();
                if (resps[i].type == dmi::RespType::readData) {
                    dmi::MemResponse done;
                    done.tag = resps[i].tag;
                    for (const dmi::UpFrame &f : dmi::encodeResponse(done))
                        acc += respAsm.feed(f).size();
                }
            }
            sink = sink + acc;
        });
    }
    return cal;
}

} // namespace perfbench
