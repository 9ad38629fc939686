#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "storage/persist.h"
#include "tests/test_util.h"

namespace blas {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(PersistTest, MissingFile) {
  EXPECT_EQ(BlasSystem::OpenPaged("/nonexistent/nope.idx2").status().code(),
            StatusCode::kNotFound);
}

TEST(PersistTest, BadMagicRejected) {
  std::string path = TempPath("badmagic.idx2");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTANIDX-and-some-garbage", f);
    std::fclose(f);
  }
  EXPECT_EQ(BlasSystem::OpenPaged(path).status().code(),
            StatusCode::kCorruption);
}

TEST(PersistTest, TruncatedFileRejected) {
  // Write a valid index, then truncate it progressively.
  BlasSystem sys = MustBuild("<a><b>x</b><c k=\"v\"/></a>");
  std::string path = TempPath("trunc.idx2");
  ASSERT_TRUE(sys.SavePagedIndex(path).ok());

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{9}}) {
    std::string cut_path = TempPath("trunc_cut.idx2");
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_EQ(BlasSystem::OpenPaged(cut_path).status().code(),
              StatusCode::kCorruption)
        << "cut at " << cut;
  }
}

TEST(PersistTest, SystemRoundTripAnswersQueriesIdentically) {
  BlasSystem original = MustBuild(
      "<site><item id=\"1\"><name>x</name><desc><par><li>t</li></par>"
      "</desc></item><item id=\"2\"><name>y</name></item>"
      "<people><person><name>x</name></person></people></site>");
  std::string path = TempPath("system.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());

  Result<BlasSystem> reopened = BlasSystem::OpenPaged(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();

  // Same characteristics.
  BlasSystem::DocStats a = original.doc_stats();
  BlasSystem::DocStats b = reopened->doc_stats();
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.tags, b.tags);
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.distinct_paths, b.distinct_paths);
  EXPECT_EQ(a.distinct_values, b.distinct_values);

  // Same answers under every translator/engine (incl. Unfold, which
  // depends on the replayed path summary).
  for (const char* q : {"//item/name", "/site//li", "//item[@id=\"2\"]/name",
                        "//name=\"x\"", "/site/*/name"}) {
    for (Translator t : {Translator::kDLabel, Translator::kSplit,
                         Translator::kPushUp, Translator::kUnfold}) {
      for (Engine e : {Engine::kRelational, Engine::kTwig}) {
        Result<QueryResult> ra = original.Execute(q, t, e);
        Result<QueryResult> rb = reopened->Execute(q, t, e);
        if (!ra.ok()) {
          EXPECT_EQ(ra.status().code(), rb.status().code());
          continue;
        }
        ASSERT_TRUE(rb.ok()) << q << " " << rb.status();
        EXPECT_EQ(ra->starts, rb->starts) << q << " " << TranslatorName(t);
      }
    }
  }
}

TEST(PersistTest, GeneratedCorpusRoundTrip) {
  BlasOptions opts;
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [](SaxHandler* h) {
        GenOptions gen;
        GenerateAuction(gen, h);
      },
      opts);
  ASSERT_TRUE(sys.ok());
  std::string path = TempPath("auction.idx2");
  ASSERT_TRUE(sys->SavePagedIndex(path).ok());
  Result<BlasSystem> reopened = BlasSystem::OpenPaged(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->doc_stats().nodes, sys->doc_stats().nodes);
  for (const char* q : {"/site/regions/asia/item[shipping]/description",
                        "//item/name", "/site/people/person[address]/name"}) {
    for (Translator t : {Translator::kDLabel, Translator::kSplit,
                         Translator::kPushUp, Translator::kUnfold}) {
      for (Engine e : {Engine::kRelational, Engine::kTwig}) {
        Result<QueryResult> orig = sys->Execute(q, t, e);
        Result<QueryResult> r = reopened->Execute(q, t, e);
        if (!orig.ok()) {
          EXPECT_EQ(orig.status().code(), r.status().code()) << q;
          continue;
        }
        ASSERT_TRUE(r.ok()) << q << " " << r.status();
        EXPECT_EQ(r->starts, orig->starts) << q << " " << TranslatorName(t);
      }
    }
  }
}

}  // namespace
}  // namespace blas
