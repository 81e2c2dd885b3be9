#include "measure.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

int
SpanLog::open(std::string name, int parent)
{
    if (!enabled_)
        return -1;
    spans_.push_back(Span{std::move(name), 0, 0, parent});
    return int(spans_.size()) - 1;
}

void
SpanLog::close(int id, Clock::time_point start, Clock::time_point end)
{
    if (id < 0)
        return;
    spans_[size_t(id)].start_s = secondsBetween(origin_, start);
    spans_[size_t(id)].end_s = secondsBetween(origin_, end);
}

RegistrySnapshot
RegistrySnapshot::take(const telemetry::MetricsRegistry &m)
{
    using Kind = telemetry::MetricsRegistry::Kind;
    RegistrySnapshot snap;
    m.forEach([&snap](const telemetry::MetricsRegistry::Series &s) {
        switch (s.kind) {
          case Kind::CounterK:
            snap.counters[s.name] += s.counter.value();
            break;
          case Kind::ProbeK:
            if (s.sampler)
                snap.probes[s.name] += s.sampler();
            break;
          case Kind::HistogramK: {
            Hist &h = snap.hists[s.name];
            for (unsigned b = 0; b < telemetry::LogHistogram::kBuckets; ++b)
                h.buckets[b] += s.histogram.bucketCount(b);
            h.count += s.histogram.count();
            h.sum += s.histogram.sum();
            break;
          }
          case Kind::GaugeK:
            break;
        }
    });
    return snap;
}

uint64_t
RegistrySnapshot::counter(std::string_view name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

double
RegistrySnapshot::probe(std::string_view name) const
{
    auto it = probes.find(name);
    return it == probes.end() ? 0.0 : it->second;
}

RegistrySnapshot::Hist
RegistrySnapshot::hist(std::string_view name) const
{
    auto it = hists.find(name);
    return it == hists.end() ? Hist{} : it->second;
}

uint64_t
counterDelta(const RegistrySnapshot &a, const RegistrySnapshot &b,
             std::string_view name)
{
    return b.counter(name) - a.counter(name);
}

double
probeDelta(const RegistrySnapshot &a, const RegistrySnapshot &b,
           std::string_view name)
{
    return b.probe(name) - a.probe(name);
}

RegistrySnapshot::Hist
histDelta(const RegistrySnapshot &a, const RegistrySnapshot &b,
          std::string_view name)
{
    RegistrySnapshot::Hist ha = a.hist(name);
    RegistrySnapshot::Hist d = b.hist(name);
    for (size_t i = 0; i < d.buckets.size(); ++i)
        d.buckets[i] -= ha.buckets[i];
    d.count -= ha.count;
    d.sum -= ha.sum;
    return d;
}

double
histQuantile(const RegistrySnapshot::Hist &h, double q)
{
    if (h.count == 0)
        return 0;
    uint64_t rank = uint64_t(q * double(h.count - 1)) + 1;
    uint64_t seen = 0;
    for (unsigned b = 0; b < h.buckets.size(); ++b) {
        seen += h.buckets[b];
        if (seen >= rank) {
            if (b == 0)
                return 0;
            double lo = double(telemetry::LogHistogram::bucketLow(b));
            double hi = double(telemetry::LogHistogram::bucketHigh(b));
            return lo + (hi - lo) / 2.0;
        }
    }
    return 0;
}

void
Fingerprint::bytes(const void *p, size_t n)
{
    const auto *c = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i) {
        h_ ^= c[i];
        h_ *= 0x100000001b3ull;
    }
}

void
Fingerprint::f64(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void
Fingerprint::str(std::string_view s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

void
Fingerprint::registry(const telemetry::MetricsRegistry &m)
{
    using Kind = telemetry::MetricsRegistry::Kind;
    m.forEach([this](const telemetry::MetricsRegistry::Series &s) {
        str(s.name);
        for (const auto &[k, v] : s.labels.kv) {
            str(k);
            str(v);
        }
        u64(uint64_t(s.kind));
        switch (s.kind) {
          case Kind::CounterK:
            u64(s.counter.value());
            break;
          case Kind::GaugeK:
            f64(s.gauge.value());
            break;
          case Kind::ProbeK:
            f64(s.sampler ? s.sampler() : 0.0);
            break;
          case Kind::HistogramK:
            u64(s.histogram.count());
            u64(s.histogram.sum());
            u64(s.histogram.min());
            u64(s.histogram.max());
            for (unsigned b = 0; b < telemetry::LogHistogram::kBuckets; ++b)
                u64(s.histogram.bucketCount(b));
            break;
        }
    });
}

double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0;
}

} // namespace perfbench
