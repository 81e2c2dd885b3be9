#include "telemetry/metrics.hpp"

#include "util/logging.hpp"

namespace vrio::telemetry {

void
Counter::stripe(unsigned shards)
{
    if (shards <= 1 || nstripes_ == shards)
        return;
    vrio_assert(nstripes_ == 0, "counter re-striped with a new width");
    stripes_ = std::make_unique<Slot[]>(shards);
    nstripes_ = shards;
}

void
LogHistogram::Data::merge(const Data &o)
{
    if (o.count == 0)
        return;
    if (count == 0 || o.min < min)
        min = o.min;
    if (o.max > max)
        max = o.max;
    for (unsigned b = 0; b < kBuckets; ++b)
        buckets[b] += o.buckets[b];
    count += o.count;
    sum += o.sum;
}

void
LogHistogram::Data::clear()
{
    buckets.fill(0);
    count = sum = min = max = 0;
}

LogHistogram::Data
LogHistogram::merged() const
{
    Data d = data_;
    for (unsigned s = 0; s < nstripes_; ++s)
        d.merge(stripes_[s]);
    return d;
}

void
LogHistogram::reset()
{
    data_.clear();
    for (unsigned s = 0; s < nstripes_; ++s)
        stripes_[s].clear();
}

void
LogHistogram::stripe(unsigned shards)
{
    if (shards <= 1 || nstripes_ == shards)
        return;
    vrio_assert(nstripes_ == 0, "histogram re-striped with a new width");
    stripes_ = std::make_unique<Data[]>(shards);
    nstripes_ = shards;
}

std::string
MetricsRegistry::seriesKey(std::string_view name, const Labels &l)
{
    std::string key(name);
    if (l.kv.empty())
        return key;
    auto sorted = l.kv;
    std::sort(sorted.begin(), sorted.end());
    key += '{';
    for (size_t i = 0; i < sorted.size(); ++i) {
        if (i)
            key += ',';
        key += sorted[i].first;
        key += '=';
        key += sorted[i].second;
    }
    key += '}';
    return key;
}

MetricsRegistry::Series &
MetricsRegistry::fetch(std::string_view name, Labels labels, Kind kind)
{
    std::string key = seriesKey(name, labels);
    auto it = series_.find(key);
    if (it != series_.end()) {
        vrio_assert(it->second->kind == kind,
                    "telemetry series re-registered with a different kind: ",
                    key);
        return *it->second;
    }
    auto s = std::make_unique<Series>();
    s->name = std::string(name);
    std::sort(labels.kv.begin(), labels.kv.end());
    s->labels = std::move(labels);
    s->kind = kind;
    if (stripe_shards_) {
        s->counter.stripe(stripe_shards_);
        s->histogram.stripe(stripe_shards_);
    }
    Series &ref = *s;
    series_.emplace(std::move(key), std::move(s));
    return ref;
}

void
MetricsRegistry::enableSharding(unsigned shards)
{
    if (shards <= 1)
        return;
    stripe_shards_ = shards;
    for (auto &[key, s] : series_) {
        s->counter.stripe(shards);
        s->histogram.stripe(shards);
    }
}

Counter &
MetricsRegistry::counter(std::string_view name, Labels labels)
{
    return fetch(name, std::move(labels), Kind::CounterK).counter;
}

Gauge &
MetricsRegistry::gauge(std::string_view name, Labels labels)
{
    return fetch(name, std::move(labels), Kind::GaugeK).gauge;
}

LogHistogram &
MetricsRegistry::histogram(std::string_view name, Labels labels)
{
    return fetch(name, std::move(labels), Kind::HistogramK).histogram;
}

void
MetricsRegistry::probe(std::string_view name, Labels labels,
                       std::function<double()> fn)
{
    fetch(name, std::move(labels), Kind::ProbeK).sampler = std::move(fn);
}

uint64_t
MetricsRegistry::sumCounters(std::string_view name) const
{
    uint64_t total = 0;
    for (const auto &[key, s] : series_) {
        if (s->kind == Kind::CounterK && s->name == name)
            total += s->counter.value();
    }
    return total;
}

const MetricsRegistry::Series *
MetricsRegistry::find(std::string_view name, Labels labels) const
{
    auto it = series_.find(seriesKey(name, labels));
    return it == series_.end() ? nullptr : it->second.get();
}

uint64_t
MetricsRegistry::count(std::string_view name, Labels labels) const
{
    const Series *s = find(name, labels);
    if (!s)
        vrio_panic("no telemetry series ", seriesKey(name, labels));
    if (s->kind == Kind::CounterK)
        return s->counter.value();
    vrio_assert(s->kind == Kind::ProbeK && s->sampler,
                "telemetry series is not a counter or probe: ",
                seriesKey(name, labels));
    return uint64_t(s->sampler());
}

} // namespace vrio::telemetry
