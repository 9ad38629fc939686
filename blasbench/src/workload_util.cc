#include "workload_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "gen/generator.h"
#include "gen/queries.h"
#include "xml/xml_writer.h"

namespace blasbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  blas::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.Next();
}

std::string AuctionXml(uint64_t gen_seed, int scale, int replicate) {
  blas::XmlTextSink sink;
  blas::GenOptions options;
  options.seed = gen_seed;
  options.scale = scale;
  options.replicate = replicate;
  blas::GenerateAuction(options, &sink);
  return sink.TakeText();
}

std::vector<QuerySpec> FixedQueries() {
  std::vector<QuerySpec> out;
  for (const blas::BenchQuery& q : blas::Figure10Queries('A')) {
    out.push_back({q.xpath});
  }
  for (const blas::BenchQuery& q : blas::XMarkBenchmarkQueries()) {
    out.push_back({q.xpath});
  }
  return out;
}

std::vector<QuerySpec> HotQueries() {
  std::vector<QuerySpec> out;
  auto add = [&](const std::string& xpath,
                 blas::Translator t = blas::Translator::kPushUp) {
    out.push_back({xpath, t});
  };
  for (const QuerySpec& q : FixedQueries()) add(q.xpath);

  const char* regions[] = {"africa", "asia",     "australia",
                           "europe", "namerica", "samerica"};
  const char* item_leaves[] = {
      "name",          "location",
      "quantity",      "payment",
      "shipping",      "description",
      "description/text",
      "description//text",
      "description/parlist/listitem",
      "mailbox/mail/from",
      "mailbox/mail/date",
      "incategory/@category",
      "@id"};
  const char* item_branches[] = {"shipping", "mailbox/mail",
                                 "description/parlist", "@featured"};
  const char* branch_leaves[] = {"name", "quantity", "location",
                                 "description"};
  for (const char* r : regions) {
    const std::string base = std::string("/site/regions/") + r + "/item";
    for (const char* leaf : item_leaves) add(base + "/" + leaf);
    for (const char* b : item_branches) {
      for (const char* leaf : branch_leaves) {
        add(base + "[" + b + "]/" + leaf);
      }
    }
    add(base + "[quantity='1']/name");
    add(base + "[quantity='5']/location");
  }
  for (const char* leaf : item_leaves) {
    add(std::string("/site/regions//item/") + leaf);
  }

  const char* person_leaves[] = {
      "name",           "emailaddress",      "phone",
      "address/city",   "address/zipcode",   "homepage",
      "creditcard",     "profile/education", "profile/age",
      "profile/interest/@category",          "watches/watch/@open_auction",
      "@id",            "profile/@income"};
  for (const char* leaf : person_leaves) {
    add(std::string("/site/people/person/") + leaf);
  }
  const char* person_branches[] = {"address", "phone", "profile", "watches",
                                   "homepage", "creditcard"};
  for (const char* b : person_branches) {
    for (const char* leaf : {"name", "emailaddress", "profile/age"}) {
      add(std::string("/site/people/person[") + b + "]/" + leaf);
    }
  }
  add("/site/people/person[profile/gender='male']/name");
  add("/site/people/person[profile/business='Yes']/emailaddress");
  add("/site/people/person[address/country='United States']/name");

  const char* open_leaves[] = {
      "initial", "reserve", "bidder/increase", "bidder/date",
      "bidder/personref/@person", "current", "privacy", "itemref/@item",
      "seller/@person", "annotation/description", "annotation/happiness",
      "quantity", "type", "interval/start", "@id"};
  for (const char* leaf : open_leaves) {
    add(std::string("/site/open_auctions/open_auction/") + leaf);
  }
  for (const char* b : {"reserve", "privacy", "bidder",
                        "annotation/description/parlist"}) {
    for (const char* leaf : {"current", "initial", "type", "bidder/increase"}) {
      add(std::string("/site/open_auctions/open_auction[") + b + "]/" + leaf);
    }
  }
  add("/site/open_auctions/open_auction[type='Featured']/current");

  const char* closed_leaves[] = {
      "price", "date", "quantity", "type", "buyer/@person", "seller/@person",
      "itemref/@item", "annotation/happiness", "annotation/description//text",
      "annotation/author/@person"};
  for (const char* leaf : closed_leaves) {
    add(std::string("/site/closed_auctions/closed_auction/") + leaf);
  }
  for (const char* b : {"annotation", "annotation/description/parlist"}) {
    for (const char* leaf : {"price", "date", "type", "buyer/@person"}) {
      add(std::string("/site/closed_auctions/closed_auction[") + b + "]/" +
          leaf);
    }
  }
  add("/site/closed_auctions/closed_auction[type='Regular']/price");

  for (const char* q :
       {"//category/name", "//category/description",
        "//category/description//text", "/site/categories/category/@id",
        "/site/catgraph/edge/@from", "/site/catgraph/edge/@to",
        "//item/name", "//person/name", "//bidder/increase", "//mail/from",
        "//listitem//text", "//description//listitem", "//annotation//text",
        "//parlist/listitem/parlist/listitem/text", "//interest/@category",
        "//item[shipping]//listitem", "//open_auction[bidder]//text",
        "//person[watches]/address/city"}) {
    add(q);
  }

  // Wildcard probes: the paper answers '*' through the schema (Unfold).
  const blas::Translator unfold = blas::Translator::kUnfold;
  for (const char* leaf : {"name", "location", "quantity", "payment",
                           "description/text", "mailbox/mail/to"}) {
    add(std::string("/site/regions/*/item/") + leaf, unfold);
  }
  for (const char* q :
       {"/site/*/person/name", "/site/*/closed_auction/price",
        "//annotation/*/text", "/site/*/*/item/name", "//bidder/*"}) {
    add(q, unfold);
  }

  // Fixed popularity order mixing the shapes; the run seed only drives
  // the draws over it.
  blas::Rng order(0x5eed0b1a5ULL);
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[order.Below(i)]);
  }
  return out;
}

std::vector<QuerySpec> AttributeWildcardQueries() {
  std::vector<QuerySpec> out;
  for (const char* q :
       {"/site/people/person/*", "/site/open_auctions/open_auction/*",
        "//item/*", "/site/regions/*/item[shipping]/*", "//profile/*"}) {
    out.push_back({q, blas::Translator::kUnfold});
  }
  return out;
}

Zipf::Zipf(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(blas::Rng* rng) const {
  const double u =
      static_cast<double>(rng->Next() >> 11) * (1.0 / 9007199254740992.0);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

bool SameWindow(const std::vector<uint32_t>& got,
                const std::vector<uint32_t>& want, size_t begin,
                size_t count) {
  const size_t lo = std::min(begin, want.size());
  const size_t hi = lo + std::min(count, want.size() - lo);
  return got.size() == hi - lo &&
         std::equal(got.begin(), got.end(), want.begin() + lo);
}

void CorruptAnswer(std::vector<uint32_t>* answer) {
  for (uint32_t& start : *answer) start += 1;
  answer->push_back(0xFFFFFFF0u);
}

uint64_t ServiceDelta::completed() const {
  return after.completed - before.completed;
}

void ServiceDelta::Fill(LayerReadings* out) const {
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double queries = static_cast<double>(completed());
  const double hits = d(before.plan_cache_hits, after.plan_cache_hits);
  const double misses = d(before.plan_cache_misses, after.plan_cache_misses);
  out->plan_cache_hit_ratio = ratio(hits, hits + misses);
  const double doc_hits = d(before.doc_plan_hits, after.doc_plan_hits);
  const double doc_misses = d(before.doc_plan_misses, after.doc_plan_misses);
  out->doc_plan_hit_ratio = ratio(doc_hits, doc_hits + doc_misses);
  const double executed = d(before.docs_executed, after.docs_executed);
  const double cancelled = d(before.docs_cancelled, after.docs_cancelled);
  out->docs_cancelled_ratio = ratio(cancelled, executed + cancelled);
  out->offset_skipped_per_query =
      ratio(d(before.exec.offset_skipped, after.exec.offset_skipped), queries);
  const double fetches = d(before.exec.page_fetches, after.exec.page_fetches);
  const double page_misses =
      d(before.exec.page_misses, after.exec.page_misses);
  out->fetches_per_query = ratio(fetches, queries);
  out->misses_per_query = ratio(page_misses, queries);
  out->hit_ratio = fetches > 0 ? 1.0 - page_misses / fetches : 0.0;
  out->io_reads_per_query =
      ratio(d(before.exec.io_reads, after.exec.io_reads), queries);
}

void AddSetupAndIngest(const TimedSamples& setup_s,
                       const TimedSamples& ingest_ms, Report* report) {
  const std::vector<double> setup = setup_s.Quiet();
  const std::vector<double> ingest = ingest_ms.Quiet();
  std::fprintf(stderr, "quiet samples: set-up %zu of %zu, ingest %zu of %zu\n",
               setup.size(), setup_s.values.size(), ingest.size(),
               ingest_ms.values.size());
  report->Add("setup_s", Median(setup), "s");
  report->Add("ingest_p50_ms", Quantile(ingest, 0.5), "ms");
  report->Add("ingest_p90_ms", Quantile(ingest, 0.9), "ms");
}

int SetupRepetitions(const RunConfig& config, int full) {
  if (config.trace) return 1;
  return config.tiny ? 2 : full;
}

void AddQueryMetrics(const PhaseSamples& phase, Report* report) {
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(std::lround(phase.wall_s)));
  const double width = phase.wall_s / static_cast<double>(windows);
  std::vector<std::vector<double>> latency(windows);
  std::vector<double> completed(windows, 0.0);
  for (size_t i = 0; i < phase.latency_ms.size(); ++i) {
    const size_t w = std::min(
        windows - 1, static_cast<size_t>(phase.at_s[i] / width));
    latency[w].push_back(phase.latency_ms[i]);
    if (std::isfinite(phase.latency_ms[i])) completed[w] += 1;
  }
  std::vector<double> qps, p50, p99, steal;
  for (size_t w = 0; w < windows; ++w) {
    if (latency[w].empty()) continue;
    qps.push_back(completed[w] / width);
    p50.push_back(Quantile(latency[w], 0.5));
    p99.push_back(Quantile(latency[w], 0.99));
    steal.push_back(phase.StealShareBetween(static_cast<double>(w) * width,
                                            static_cast<double>(w + 1) *
                                                width));
  }
  const std::vector<size_t> quiet = QuietIndexes(steal);
  auto median_of_quiet = [&](const std::vector<double>& values) {
    std::vector<double> kept;
    for (size_t w : quiet) kept.push_back(values[w]);
    return Median(std::move(kept));
  };
  std::fprintf(stderr,
               "query windows: qps min %.0f median %.0f max %.0f; "
               "%zu of %zu quiet, steal max %.3f\n",
               Quantile(qps, 0), Median(qps), Quantile(qps, 1), quiet.size(),
               qps.size(), Quantile(steal, 1));
  report->Add("query_qps", median_of_quiet(qps), "1/s");
  report->Add("query_p50_ms", median_of_quiet(p50), "ms");
  report->Add("query_p99_ms", median_of_quiet(p99), "ms");
}

}  // namespace blasbench
