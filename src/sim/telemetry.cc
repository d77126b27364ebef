#include "sim/telemetry.hh"

#include <algorithm>
#include <sstream>

namespace contutto::telemetry
{

void
writePerfettoTrace(const std::vector<span::Span> &spans,
                   std::ostream &os)
{
    std::vector<span::Span> sorted = spans;
    std::sort(sorted.begin(), sorted.end(),
              [](const span::Span &a, const span::Span &b) {
                  if (a.begin != b.begin)
                      return a.begin < b.begin;
                  return a.seq < b.seq;
              });
    os << "[";
    bool first = true;
    for (const span::Span &s : sorted) {
        if (!first)
            os << ",\n";
        first = false;
        // Ticks are picoseconds; trace-event "ts"/"dur" are
        // microseconds (fractional values are accepted).
        double ts_us = double(s.begin) * 1e-6;
        double dur_us = double(s.end - s.begin) * 1e-6;
        os << "{\"name\":";
        stats::jsonEscape(s.stage, os);
        os << ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":";
        stats::jsonNumber(ts_us, os);
        os << ",\"dur\":";
        stats::jsonNumber(dur_us, os);
        os << ",\"pid\":0,\"tid\":" << s.id << ",\"args\":{\"traceId\":"
           << s.id << "}}";
    }
    os << "]\n";
}

void
writePerfettoTrace(std::ostream &os)
{
    writePerfettoTrace(span::snapshot(), os);
}

IntervalDumper::IntervalDumper(EventQueue &eq,
                               const stats::StatGroup &group,
                               Tick period)
    : eq_(eq), group_(group), period_(period),
      event_([this] { tick(); }, group.groupName() + ".statsDump")
{
    ct_assert(period_ > 0);
}

IntervalDumper::~IntervalDumper()
{
    stop();
}

void
IntervalDumper::start()
{
    if (!event_.scheduled())
        eq_.schedule(&event_, eq_.curTick() + period_);
}

void
IntervalDumper::stop()
{
    if (event_.scheduled())
        eq_.deschedule(&event_);
}

void
IntervalDumper::snapshot()
{
    std::ostringstream os;
    stats::toJson(group_, os);
    snaps_.emplace_back(eq_.curTick(), os.str());
}

void
IntervalDumper::tick()
{
    snapshot();
    eq_.schedule(&event_, eq_.curTick() + period_);
}

void
IntervalDumper::write(std::ostream &os) const
{
    os << "{\"period\":" << period_ << ",\"snapshots\":[";
    bool first = true;
    for (const auto &[tick, json] : snaps_) {
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"tick\":" << tick << ",\"stats\":" << json << "}";
    }
    os << "]}\n";
}

} // namespace contutto::telemetry
