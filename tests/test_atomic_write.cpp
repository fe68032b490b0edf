// Tests for the tools' crash-safe artifact writer (src/rt/atomic_write):
// a fresh write, an atomic overwrite of an existing file, and the typed
// plee_error on I/O failure, with no temp file left behind either way.

#include "rt/atomic_write.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "rt/errors.hpp"

namespace plee {
namespace {

class AtomicWrite : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("plee_atomic_write_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const char* name) const { return (dir_ / name).string(); }

    static std::string read(const std::string& p) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    }

    /// Entries in the test directory; a leftover temp file shows up here.
    std::size_t entries() const {
        std::size_t n = 0;
        for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator(dir_)) {
            ++n;
        }
        return n;
    }

    std::filesystem::path dir_;
};

TEST_F(AtomicWrite, WritesTheWholeText) {
    const std::string out = path("report.json");
    atomic_write_text(out, "{\"ok\": true}\n");
    EXPECT_EQ(read(out), "{\"ok\": true}\n");
    EXPECT_EQ(entries(), 1u);  // no temp file left behind

    atomic_write_text(path("empty.txt"), "");
    EXPECT_TRUE(std::filesystem::exists(path("empty.txt")));
    EXPECT_EQ(read(path("empty.txt")), "");
}

TEST_F(AtomicWrite, OverwriteReplacesTheFileWhole) {
    const std::string out = path("metrics.prom");
    atomic_write_text(out, std::string(4096, 'a'));
    atomic_write_text(out, "short\n");
    // Replaced by rename, not truncated in place: no tail of the longer
    // first version survives.
    EXPECT_EQ(read(out), "short\n");
    EXPECT_EQ(entries(), 1u);
}

TEST_F(AtomicWrite, MissingDirectoryThrowsTypedError) {
    try {
        atomic_write_text(path("no/such/dir/out.txt"), "x");
        FAIL() << "write into a missing directory succeeded";
    } catch (const plee_error& e) {
        EXPECT_NE(std::string(e.what()).find("no/such/dir"), std::string::npos);
    }
    EXPECT_EQ(entries(), 0u);
}

TEST_F(AtomicWrite, FailedRenameLeavesTargetAndNoTemp) {
    // A directory in the target's place makes the final rename fail after
    // the temp file was written: the target must be untouched and the temp
    // removed.
    const std::string target = path("occupied");
    std::filesystem::create_directory(target);
    std::ofstream(path("occupied/keep.txt")) << "kept";
    EXPECT_THROW(atomic_write_text(target, "new text"), plee_error);
    EXPECT_TRUE(std::filesystem::is_directory(target));
    EXPECT_EQ(read(path("occupied/keep.txt")), "kept");
    EXPECT_EQ(entries(), 1u);
}

}  // namespace
}  // namespace plee
