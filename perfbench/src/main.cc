/**
 * @file
 * The perfbench binary: one workload, one seed, one run.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1 --out DIR
 *             [--reference-ns X]
 *
 * Pass 0 is the check pass (warm-up plus the one-time checks, not
 * timed). Timed passes follow until S seconds have gone by; every
 * one must reproduce pass 0's modelled-hardware digest. Load from
 * other tenants of a shared host only ever slows a pass down, so the
 * host speed reported is that of the fastest pass: sim_ops_per_s is
 * its rate, and the per-layer host times use its step-loop time.
 * Set-up time is the median over passes. With
 * --trace 1 the run also calibrates the DMI link's host costs and
 * makes three traced passes with the span tracker on at 1-in-N, and
 * writes the per-layer table to DIR/layers.txt. Every run writes
 * DIR/trace.json (Perfetto: the benchmark's host spans, plus the
 * traced passes' simulated stage spans) and DIR/stats.json (the
 * workload's stat tree).
 *
 * The last line of standard output is one JSON object with the
 * metrics, the digest, and the problems seen; run.py turns it into
 * the benchmark's result.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/span.hh"
#include "sim/telemetry.hh"
#include "workloads.hh"

using namespace perfbench;
using namespace contutto;

namespace
{

constexpr unsigned minTimedPasses = 5;
/** Traced passes: the overhead ratio is fastest traced pass over
 *  fastest untraced pass. */
constexpr unsigned tracedPasses = 3;
/** Traced ops per traced pass: enough for stable per-stage means,
 *  few enough to stay inside the span tracker's buffer. */
constexpr double tracedOpsTarget = 1000;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out = ".";
    double referenceNs = 0;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 0);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (k == "--out")
            a.out = v;
        else if (k == "--reference-ns")
            a.referenceNs = std::strtod(v, nullptr);
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

class Metrics
{
  public:
    void
    add(const std::string &name, double v)
    {
        items_.emplace_back(name, v);
    }

    void
    json(std::ostream &os) const
    {
        os << "{";
        const char *sep = "";
        for (const auto &[name, v] : items_) {
            os << sep << "\"" << name << "\": ";
            stats::jsonNumber(v, os);
            sep = ", ";
        }
        os << "}";
    }

    void
    table(std::ostream &os) const
    {
        for (const auto &[name, v] : items_) {
            char line[160];
            std::snprintf(line, sizeof(line), "  %-32s %.6g\n",
                          name.c_str(), v);
            os << line;
        }
    }

  private:
    std::vector<std::pair<std::string, double>> items_;
};

/** The per-layer metrics, from pass 0's counts and the fastest
 *  timed pass's step-loop time @p runSec. */
void
layerMetrics(Metrics &m, const Pass &p0, double runSec,
             const DmiCalibration &cal, const StageBreakdown &sb,
             double overhead, double medianToJson, double medianTrain,
             double medianGenerate, double medianDecode)
{
    const double ops = p0.ops;
    const double frames = p0.downFrames + p0.upFrames;
    m.add("ops_per_pass", ops);
    m.add("sim.events_per_op", ratio(p0.events, ops));
    m.add("sim.schedules_per_op", ratio(p0.schedules, ops));
    m.add("sim.overflow_spills_per_op", ratio(p0.overflowSpills, ops));
    m.add("sim.host_ns_per_event", ratio(runSec * 1e9, p0.events));

    m.add("dmi.down_frames_per_op", ratio(p0.downFrames, ops));
    m.add("dmi.up_frames_per_op", ratio(p0.upFrames, ops));
    m.add("dmi.payload_frame_ratio", ratio(p0.payloadFrames, frames));
    m.add("dmi.frames_replayed", p0.framesReplayed);
    m.add("dmi.crc_ns_per_frame", cal.crcNsPerFrame);
    m.add("dmi.scramble_ns_per_frame", cal.scrambleNsPerFrame);
    m.add("dmi.codec_ns_per_op", cal.codecNsPerOp);
    // Each frame is CRC'd and scrambled once at each end of the link.
    const double dmiNs =
        frames * 2 * (cal.crcNsPerFrame + cal.scrambleNsPerFrame)
        + p0.portOps * cal.codecNsPerOp;
    m.add("dmi.est_host_share", ratio(dmiNs, runSec * 1e9));

    const double trips = p0.sampledDetailed + p0.sampledFastForward;
    m.add("sampling.trips", trips > 0 ? trips : p0.portOps);
    m.add("sampling.detailed_fraction",
          trips > 0 ? p0.sampledDetailed / trips : 1.0);
    m.add("sampling.ci_half_pct",
          100 * ratio(p0.sampledCiHalfSec, p0.sampledEstimateSec));

    m.add("mbs.cmds_per_op", ratio(p0.mbsCmds, ops));
    m.add("mbs.engine_occupancy_mean",
          ratio(p0.mbsOccSum, p0.mbsOccCount));
    m.add("ddr3.row_hit_rate",
          ratio(p0.rowHits, p0.rowHits + p0.rowMisses));
    m.add("mram.bytes_written_per_op", ratio(p0.mramBytesWritten, ops));
    m.add("pmem.fences_per_io", ratio(p0.pmemFences, ops));
    m.add("port.tag_stalls_per_op", ratio(p0.tagStalls, ops));

    m.add("trace.generate_ns_per_record", medianGenerate);
    m.add("trace.decode_ns_per_record", medianDecode);
    m.add("dmi.train_s", medianTrain);
    m.add("stats.to_json_s", medianToJson);

    for (const char *stage :
         {"host", "host.tagwait", "dmi.down", "mbs", "ddr", "dmi.up",
          "pmem.fence"}) {
        auto it = sb.nsPerOp.find(stage);
        m.add(std::string("span.") + stage + "_ns",
              it == sb.nsPerOp.end() ? 0.0 : it->second);
    }
    m.add("span.traced_ops", double(sb.tracedHostOps));
    m.add("trace_overhead_ratio", overhead);
}

void
addProblem(std::vector<std::string> &problems, const std::string &p)
{
    if (std::find(problems.begin(), problems.end(), p) == problems.end())
        problems.push_back(p);
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream os(path);
    os << text;
    if (!os)
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload W --seed N --seconds S "
                     "--trace 0|1 --out DIR [--reference-ns X]\n");
        return 2;
    }
    const std::filesystem::path out(args.out);
    std::filesystem::create_directories(out);
    auto workload = makeWorkload(args.workload, args.seed, out.string());
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n",
                     args.workload.c_str());
        return 2;
    }

    HostSpans spans;
    std::vector<std::string> problems;
    const Pass p0 = workload->pass(spans, true);
    problems = p0.problems;

    std::vector<double> rates, setups, runs, trains, generates,
        decodes, toJsons;
    const double start = hostNow();
    while (rates.size() < minTimedPasses
           || hostNow() - start < args.seconds) {
        const Pass p = workload->pass(spans, false);
        for (const std::string &pr : p.problems)
            addProblem(problems, pr);
        if (p.digest != p0.digest)
            addProblem(problems, "a timed pass changed the digest");
        rates.push_back(ratio(p.ops, p.runSec));
        setups.push_back(p.setupSec);
        runs.push_back(p.runSec);
        trains.push_back(p.trainSec);
        generates.push_back(p.generateNsPerRecord);
        decodes.push_back(p.decodeNsPerRecord);
        toJsons.push_back(p.toJsonSec);
    }

    Metrics m;
    double reference = args.referenceNs;
    if (!args.trace) {
        if (reference <= 0)
            reference = workload->detailedReferenceNs(spans);
        const double accuracy = reference > 0
            ? 1 - std::fabs(p0.simRuntimeNs - reference) / reference
            : 1.0;
        m.add("sim_ops_per_s",
              *std::max_element(rates.begin(), rates.end()));
        m.add("setup_s", median(setups));
        m.add("peak_rss_mb", peakRssMb());
        m.add("sim_runtime_ns", p0.simRuntimeNs);
        m.add("sim_read_latency_mean_ns",
              ratio(p0.readLatSum, p0.readLatCount));
        m.add("sampled_runtime_accuracy", accuracy);
    } else {
        const double runSec = *std::min_element(runs.begin(), runs.end());
        const double frames = p0.downFrames + p0.upFrames;
        const DmiCalibration cal = calibrateDmi(
            ratio(p0.portReads, p0.portReads + p0.portWrites),
            ratio(p0.downFrames, frames), args.seed, spans);

        // The traced passes: same work, span tracker on at 1-in-N.
        const std::uint64_t every = std::max<std::uint64_t>(
            1, std::uint64_t(p0.portOps / tracedOpsTarget));
        span::reset();
        span::setSampleInterval(every);
        span::setEnabled(true);
        std::vector<double> tracedRuns;
        for (unsigned i = 0; i < tracedPasses; ++i) {
            const Pass traced = workload->pass(spans, false);
            for (const std::string &pr : traced.problems)
                addProblem(problems, pr);
            if (traced.digest != p0.digest)
                addProblem(problems, "tracing changed the digest");
            tracedRuns.push_back(traced.runSec);
        }
        span::setEnabled(false);
        const StageBreakdown sb = stageBreakdown();

        const double tracedSec =
            *std::min_element(tracedRuns.begin(), tracedRuns.end());

        layerMetrics(m, p0, runSec, cal, sb, ratio(tracedSec, runSec),
                     median(toJsons), median(trains), median(generates),
                     median(decodes));

        std::ostringstream table;
        table << "workload " << args.workload << ", seed " << args.seed
              << ", 1-in-" << every << " ops traced\n";
        m.table(table);
        writeFile(out / "layers.txt", table.str());
        std::fputs(table.str().c_str(), stdout);
    }

    // One Perfetto file: the simulated stage spans of the traced
    // passes (pid 0, ticks shown as microseconds) and the benchmark's
    // host spans around its layer calls (pid 1, host microseconds).
    std::ostringstream sim;
    telemetry::writePerfettoTrace(span::snapshot(), sim);
    std::string events = sim.str();
    events = events.substr(events.find('[') + 1);
    events = events.substr(0, events.rfind(']'));
    std::ostringstream trace;
    trace << "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
             "\"args\":{\"name\":\"simulated stages\"}},\n"
             "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
             "\"args\":{\"name\":\"benchmark host spans\"}}";
    if (events.find('{') != std::string::npos)
        trace << ",\n" << events;
    spans.writeEvents(trace);
    trace << "]\n";
    writeFile(out / "trace.json", trace.str());
    writeFile(out / "stats.json", p0.statsJson);

    const double attempted = std::max(1.0, p0.attempted);
    const double failed = problems.empty()
        ? std::min(attempted, p0.failed)
        : attempted;
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  (unsigned long long)p0.digest);
    std::ostringstream os;
    os << "{\"workload\": \"" << args.workload << "\", \"seed\": "
       << args.seed << ", \"timed_passes\": " << rates.size()
       << ", \"digest\": \"" << digest << "\", \"attempted\": ";
    stats::jsonNumber(attempted, os);
    os << ", \"failed\": ";
    stats::jsonNumber(failed, os);
    os << ", \"reference_ns\": ";
    stats::jsonNumber(reference, os);
    os << ", \"problems\": [";
    const char *sep = "";
    for (const std::string &pr : problems) {
        os << sep;
        stats::jsonEscape(pr, os);
        sep = ", ";
    }
    os << "], \"metrics\": ";
    m.json(os);
    os << "}\n";
    std::fputs(os.str().c_str(), stdout);
    return 0;
}
