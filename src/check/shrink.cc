#include "check/shrink.hh"

#include <algorithm>
#include <fstream>

#include "check/mem_checker.hh"
#include "check/report.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"

namespace middlesim::check
{

std::vector<trace::TraceRecord>
collectRecords(trace::TraceReader &reader)
{
    std::vector<trace::TraceRecord> out;
    trace::TraceRecord rec;
    while (reader.next(rec))
        out.push_back(rec);
    return out;
}

namespace
{

struct ProbeResult
{
    std::string invariant;
    std::size_t recordIndex = 0;
};

/** Replay with a collecting checker; stop at the first violation. */
ProbeResult
probe(const trace::TraceHeader &header,
      const std::vector<trace::TraceRecord> &records,
      const mem::FaultPlan *fault)
{
    auto hierarchy = trace::hierarchyFor(header);
    if (fault)
        hierarchy->setFaultPlan(fault);
    CheckOptions opts;
    opts.failFast = false;
    opts.maxViolations = 1;
    CheckReport report(opts);
    MemChecker checker(*hierarchy, report);
    hierarchy->attachTap(&checker);

    for (std::size_t i = 0; i < records.size(); ++i) {
        const trace::TraceRecord &rec = records[i];
        if (rec.isRef)
            hierarchy->access(rec.ref, rec.tick);
        else if (rec.kind == mem::TraceAnnotation::InvalidateAll)
            hierarchy->invalidateAll();
        if (!report.clean())
            return {report.violations().front().invariant, i};
    }
    return {"", records.size()};
}

} // namespace

std::string
violatedInvariant(const trace::TraceHeader &header,
                  const std::vector<trace::TraceRecord> &records,
                  const mem::FaultPlan *fault)
{
    return probe(header, records, fault).invariant;
}

ShrinkResult
shrinkToMinimal(const trace::TraceHeader &header,
                std::vector<trace::TraceRecord> records,
                const mem::FaultPlan *fault, unsigned max_probes)
{
    ShrinkResult out;
    out.originalCount = records.size();

    ProbeResult base = probe(header, records, fault);
    ++out.probes;
    if (base.invariant.empty())
        return out;
    out.reproduced = true;
    out.invariant = base.invariant;

    // The violation fires while processing record `recordIndex`;
    // everything after it is irrelevant by construction.
    records.resize(base.recordIndex + 1);

    // Greedy chunked removal at halving granularity. A candidate is
    // accepted only if the same invariant still fires; the candidate
    // is then re-truncated at its own violating record.
    std::size_t chunk = std::max<std::size_t>(records.size() / 2, 1);
    for (;;) {
        bool removed = false;
        for (std::size_t start = 0;
             start < records.size() && records.size() > 1 &&
             out.probes < max_probes;) {
            const std::size_t end =
                std::min(start + chunk, records.size());
            std::vector<trace::TraceRecord> candidate;
            candidate.reserve(records.size() - (end - start));
            candidate.insert(candidate.end(), records.begin(),
                             records.begin() +
                                 static_cast<long>(start));
            candidate.insert(candidate.end(),
                             records.begin() + static_cast<long>(end),
                             records.end());
            if (candidate.empty()) {
                start += chunk;
                continue;
            }
            ++out.probes;
            const ProbeResult r = probe(header, candidate, fault);
            if (r.invariant == out.invariant) {
                records = std::move(candidate);
                records.resize(r.recordIndex + 1);
                removed = true;
                // Do not advance: the same position now holds the
                // records that followed the removed chunk.
            } else {
                start += chunk;
            }
        }
        if (out.probes >= max_probes)
            break;
        if (chunk == 1) {
            if (!removed)
                break;
        } else {
            chunk = std::max<std::size_t>(chunk / 2, 1);
        }
    }

    out.records = std::move(records);
    return out;
}

std::string
encodeTrace(const trace::TraceHeader &header,
            const std::vector<trace::TraceRecord> &records)
{
    trace::TraceWriter writer(header);
    for (const trace::TraceRecord &rec : records) {
        if (rec.isRef)
            writer.ref(rec.ref, rec.tick);
        else
            writer.annotation(rec.kind, 0, rec.tick, rec.arg);
    }
    return writer.take();
}

std::string
writeRepro(const std::string &dir, std::uint64_t seed,
           const trace::TraceHeader &header, const ShrinkResult &result)
{
    std::string slug = result.invariant;
    for (char &c : slug) {
        if (c == '.')
            c = '-';
    }
    const std::string path = dir + "/repro-seed" +
                             std::to_string(seed) + "-" + slug +
                             trace::traceFileExt;
    const std::string bytes = encodeTrace(header, result.records);
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    file.flush();
    return file.good() ? path : std::string();
}

} // namespace middlesim::check
