#include <sys/resource.h>

#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hh"
#include "common/hash.hh"
#include "serve/result_store.hh"

namespace perfbench
{

using atlb::Scheme;
using atlb::SimResult;

void
Outcome::op(bool ok, const std::string &what)
{
    ++attempted_;
    check(ok, what);
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
}

void
Outcome::metric(const std::string &name, double value,
                const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Outcome::note(const std::string &line)
{
    std::cout << line << "\n";
}

double
secondsSince(SpanRecorder::Clock::time_point start)
{
    return std::chrono::duration<double>(SpanRecorder::Clock::now() - start)
        .count();
}

std::string
describeTiming(const std::string &what, const std::vector<double> &values,
               const char *unit)
{
    std::ostringstream line;
    line << what << ": n=" << values.size();
    if (values.empty())
        return line.str();
    line << " p50=" << median(values) << " " << unit;
    if (const std::optional<double> p =
            highestSupportedPercentile(values.size()))
        line << " p" << *p << "=" << percentile(values, *p) << " " << unit;
    else
        line << " (no tail percentile has 10 samples beyond it)";
    return line.str();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<atlb::CellJob>
rowJobs(const std::string &workload, atlb::ScenarioKind scenario)
{
    std::vector<atlb::CellJob> jobs;
    for (const Scheme scheme : atlb::allSchemes)
        jobs.push_back({workload, scenario, scheme, {}});
    return jobs;
}

std::string
schemeSlug(Scheme scheme)
{
    std::string slug = atlb::schemeName(scheme);
    for (char &c : slug) {
        if (c == ' ')
            c = '-';
        else if (c >= 'A' && c <= 'Z')
            c = static_cast<char>(c - 'A' + 'a');
    }
    return slug;
}

void
checkRow(Outcome &out, const std::vector<SimResult> &row,
         std::uint64_t accesses, const std::string &label)
{
    out.check(row.size() == std::size(atlb::allSchemes),
              label + ": row has " + std::to_string(row.size()) + " cells");
    for (const SimResult &r : row) {
        const atlb::MmuStats &s = r.stats;
        const bool conserved = s.l1_hits + s.l2_regular_hits +
                                   s.coalesced_hits + s.page_walks ==
                               s.accesses;
        out.op(conserved && s.accesses == accesses,
               label + " " + r.scheme + ": counters do not conserve or " +
                   std::to_string(s.accesses) + " accesses != " +
                   std::to_string(accesses));
    }
    if (row.size() == std::size(atlb::allSchemes)) {
        const SimResult &dynamic = row[5];
        const SimResult &ideal = row[6];
        out.check(ideal.misses() <= dynamic.misses(),
                  label + ": Static Ideal walks " +
                      std::to_string(ideal.misses()) + " > Dynamic walks " +
                      std::to_string(dynamic.misses()));
    }
}

std::uint64_t
rowDigest(const std::vector<SimResult> &row)
{
    std::string bytes;
    for (const SimResult &r : row)
        bytes += atlb::encodeSimResult(r);
    return atlb::fnv1a64(bytes.data(), bytes.size());
}

TimedRow
jobRow(const atlb::SimOptions &options, const std::string &workload,
       atlb::ScenarioKind scenario)
{
    TimedRow row;
    const auto start = SpanRecorder::Clock::now();
    const atlb::CellPairState pair(options, workload, scenario);
    for (const atlb::CellJob &job : rowJobs(workload, scenario))
        row.results.push_back(atlb::runCellJob(options, pair, job));
    row.seconds = secondsSince(start);
    return row;
}

bool
sameStats(const atlb::MmuStats &a, const atlb::MmuStats &b)
{
    return a.accesses == b.accesses && a.l1_hits == b.l1_hits &&
           a.l2_regular_hits == b.l2_regular_hits &&
           a.coalesced_hits == b.coalesced_hits &&
           a.page_walks == b.page_walks &&
           a.translation_cycles == b.translation_cycles &&
           a.shootdowns == b.shootdowns &&
           a.shootdown_cycles == b.shootdown_cycles;
}

void
writeTraceFile(Outcome &out, const std::string &path,
               const std::vector<Span> &spans)
{
    std::ofstream file(path);
    writeChromeTrace(file, spans);
    file.close();
    out.check(static_cast<bool>(file), "could not write " + path);
    out.note("trace events: " + path + " (" + std::to_string(spans.size()) +
             " spans)");
}

} // namespace perfbench
