// Corpus directory loading (the vcsearch-build --docs path).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "support/errors.hpp"
#include "text/corpus.hpp"

namespace vc {
namespace {

class CorpusIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per process: ctest -j runs these tests concurrently.
    dir_ = std::filesystem::temp_directory_path() /
           ("vc_corpus_io_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ / "sub");
    write(dir_ / "b.txt", "bravo document");
    write(dir_ / "a.txt", "alpha document");
    write(dir_ / "sub" / "c.txt", "charlie nested");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static void write(const std::filesystem::path& p, std::string_view text) {
    std::ofstream out(p);
    out << text;
  }

  std::filesystem::path dir_;
};

TEST_F(CorpusIoTest, LoadsRecursivelyInDeterministicOrder) {
  Corpus c("dir");
  EXPECT_EQ(c.load_directory(dir_.string()), 3u);
  ASSERT_EQ(c.size(), 3u);
  // Sorted by path: a.txt, b.txt, sub/c.txt.
  EXPECT_EQ(c[0].text, "alpha document");
  EXPECT_EQ(c[1].text, "bravo document");
  EXPECT_EQ(c[2].text, "charlie nested");
  EXPECT_EQ(c[2].name, (std::filesystem::path("sub") / "c.txt").string());
  EXPECT_EQ(c.total_bytes(), 14u + 14u + 14u);
}

TEST_F(CorpusIoTest, MaxDocsLimits) {
  Corpus c("dir");
  EXPECT_EQ(c.load_directory(dir_.string(), 2), 2u);
  EXPECT_EQ(c.size(), 2u);
}

TEST_F(CorpusIoTest, MissingDirectoryThrows) {
  Corpus c("dir");
  EXPECT_THROW(c.load_directory((dir_ / "nope").string()), UsageError);
}

TEST_F(CorpusIoTest, AppendsToExistingCorpus) {
  Corpus c("dir");
  c.add("pre", "preexisting");
  c.load_directory(dir_.string());
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c[0].id, 0u);
  EXPECT_EQ(c[3].id, 3u);  // ids continue
}

}  // namespace
}  // namespace vc
