#include "common/knobs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hpp"

namespace dmis {
namespace {

/// Unsets every registry knob for the test and restores the caller's
/// values afterwards.
class KnobsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const KnobSpec& s : knobs::registry()) {
      const std::string name(s.name);
      if (const char* v = std::getenv(name.c_str())) saved_[name] = v;
      ::unsetenv(name.c_str());
    }
  }
  void TearDown() override {
    for (const KnobSpec& s : knobs::registry()) {
      const std::string name(s.name);
      const auto it = saved_.find(name);
      if (it != saved_.end()) {
        ::setenv(name.c_str(), it->second.c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
  }
  static void set(Knob knob, const char* value) {
    ::setenv(std::string(knobs::spec(knob).name).c_str(), value, 1);
  }

 private:
  std::map<std::string, std::string> saved_;
};

/// Expects `fn` to throw InvalidArgument whose message names `knob`,
/// what it accepts and the bad text.
template <class Fn>
void expect_rejected(Knob knob, const std::string& text, Fn fn) {
  try {
    fn();
    ADD_FAILURE() << knobs::spec(knob).name << " accepted '" << text << "'";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(knobs::spec(knob).name), std::string::npos) << what;
    EXPECT_NE(what.find(knobs::accepted(knob)), std::string::npos) << what;
    EXPECT_NE(what.find("'" + text + "'"), std::string::npos) << what;
  }
}

struct Forms {
  Knob knob;
  const char* name;
  std::vector<std::string> good;
  std::vector<std::string> bad;
};

const std::vector<std::string> kBadInt = {
    "abc", "12abc", "1.5", " 7", "7 ", "+7", "0x10", "99999999999999999999"};
const std::vector<std::string> kBadDouble = {
    "abc", "2.5x", "inf", "nan", "1e999", " 3", "-2", "0"};
const std::vector<std::string> kBadBool = {
    "junk", "on", "off", "yes", "true", "false", "2", "-1", "01", "1 "};
const std::vector<std::string> kBadPort = {"abc", "-1", "65536", "80x",
                                           "99999999999999999999"};

std::vector<std::string> plus(std::vector<std::string> a,
                              const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Every knob, in Knob order, with forms it documents and forms it must
/// reject (trailing garbage, out of range, overflow, unknown words).
const std::vector<Forms>& table() {
  static const std::vector<Forms> forms = {
      {Knob::kKernel, "DMIS_KERNEL", {"naive", "gemm"},
       {"fast", "GEMM", "gemm ", "naive,gemm"}},
      {Knob::kLogLevel, "DMIS_LOG_LEVEL",
       {"TRACE", "DEBUG", "INFO", "WARN", "ERROR", "OFF"},
       {"debug", "Info", "VERBOSE", "WARNING", "3"}},
      {Knob::kMetrics, "DMIS_METRICS", {"/tmp/m.jsonl", "rel/path"}, {}},
      {Knob::kTrace, "DMIS_TRACE", {"/tmp/t.json"}, {}},
      {Knob::kTraceBuffer, "DMIS_TRACE_BUFFER", {"1", "65536"},
       plus(kBadInt, {"0", "-5"})},
      {Knob::kObsPort, "DMIS_OBS_PORT", {"0", "9464", "65535"}, kBadPort},
      {Knob::kObsLingerMs, "DMIS_OBS_LINGER_MS", {"0", "4000"},
       plus(kBadInt, {"-1"})},
      {Knob::kFlightDir, "DMIS_FLIGHT_DIR", {"/tmp/flight"}, {}},
      {Knob::kServeWorkers, "DMIS_SERVE_WORKERS", {"1", "4"},
       plus(kBadInt, {"0", "-2", "2147483648"})},
      {Knob::kServeQueue, "DMIS_SERVE_QUEUE", {"1", "512"},
       plus(kBadInt, {"0"})},
      {Knob::kServeDeadlineMs, "DMIS_SERVE_DEADLINE_MS", {"0", "2000"},
       plus(kBadInt, {"-1"})},
      {Knob::kServeVoxelBudget, "DMIS_SERVE_VOXEL_BUDGET", {"0", "1000000"},
       plus(kBadInt, {"-1"})},
      {Knob::kStragglerFactor, "DMIS_STRAGGLER_FACTOR", {"1.5", "2", "3.5"},
       plus(kBadDouble, {"1", "0.5"})},
      {Knob::kBucketBytes, "DMIS_BUCKET_BYTES", {"0", "16384", "1048576"},
       plus(kBadInt, {"-1", "1M", "64K"})},
      {Knob::kElastic, "DMIS_ELASTIC", {"0", "1"}, kBadBool},
      {Knob::kElasticGrow, "DMIS_ELASTIC_GROW", {"0", "1"}, kBadBool},
      {Knob::kCommTimeoutMs, "DMIS_COMM_TIMEOUT_MS", {"0", "250"},
       plus(kBadInt, {"-1", "soon"})},
      {Knob::kCommLeaseMs, "DMIS_COMM_LEASE_MS", {"1", "2000"},
       plus(kBadInt, {"0", "-5"})},
      {Knob::kCommAlgo, "DMIS_COMM_ALGO", {"ring", "tree", "hier", "auto"},
       {"fastest", "Ring", "ring ", "ring|tree", "0"}},
      {Knob::kCommRanksPerNode, "DMIS_COMM_RANKS_PER_NODE", {"0", "2"},
       plus(kBadInt, {"-3", "lots", "2147483648"})},
      {Knob::kCompress, "DMIS_COMPRESS", {"none", "fp16", "topk"},
       {"gzip", "FP16", "fp32", "topk "}},
      {Knob::kTopkRatio, "DMIS_TOPK_RATIO", {"0.01", "0.25", "1", "1.0"},
       plus(kBadDouble, {"1.5", "0.0"})},
  };
  return forms;
}

TEST_F(KnobsTest, RegistryListsEveryKnobOnceInEnumOrder) {
  ASSERT_EQ(knobs::registry().size(), table().size());
  ASSERT_EQ(knobs::registry().size(), 22U);
  std::set<std::string_view> names;
  for (size_t i = 0; i < table().size(); ++i) {
    const Forms& f = table()[i];
    EXPECT_EQ(static_cast<size_t>(f.knob), i);
    EXPECT_EQ(knobs::spec(f.knob).name, f.name);
    EXPECT_FALSE(knobs::spec(f.knob).doc.empty()) << f.name;
    EXPECT_TRUE(names.insert(knobs::spec(f.knob).name).second) << f.name;
    // Every default is a value its own knob accepts.
    if (!knobs::spec(f.knob).default_text.empty()) {
      EXPECT_NO_THROW(knobs::check(f.knob, knobs::spec(f.knob).default_text))
          << f.name;
    }
  }
}

TEST_F(KnobsTest, AcceptsDocumentedForms) {
  for (const Forms& f : table()) {
    for (const std::string& text : f.good) {
      EXPECT_NO_THROW(knobs::check(f.knob, text)) << f.name << "=" << text;
      set(f.knob, text.c_str());
      EXPECT_EQ(knobs::env_value(f.knob), text) << f.name;
    }
  }
}

TEST_F(KnobsTest, RejectsMalformedValuesNamingTheKnob) {
  for (const Forms& f : table()) {
    for (const std::string& text : f.bad) {
      SCOPED_TRACE(std::string(f.name) + "=" + text);
      expect_rejected(f.knob, text, [&] { knobs::check(f.knob, text); });
      if (knobs::spec(f.knob).bootstrap) continue;
      set(f.knob, text.c_str());
      expect_rejected(f.knob, text, [&] { (void)knobs::env_value(f.knob); });
    }
  }
}

TEST_F(KnobsTest, EmptyMeansUnset) {
  for (const Forms& f : table()) {
    set(f.knob, "");
    EXPECT_FALSE(knobs::env_value(f.knob).has_value()) << f.name;
  }
  EXPECT_EQ(knobs::get<int64_t>(Knob::kCommLeaseMs), 2000);
  EXPECT_EQ(knobs::get<int64_t>(Knob::kCommLeaseMs, 5000), 5000);
  EXPECT_FALSE(knobs::find<int64_t>(Knob::kObsPort).has_value());
  EXPECT_FALSE(knobs::find<std::string>(Knob::kMetrics).has_value());
}

TEST_F(KnobsTest, EnvWinsOverConfiguredWhichWinsOverDefault) {
  EXPECT_EQ(knobs::get<int>(Knob::kServeWorkers), 2);
  EXPECT_EQ(knobs::get<int>(Knob::kServeWorkers, 4), 4);
  set(Knob::kServeWorkers, "3");
  EXPECT_EQ(knobs::get<int>(Knob::kServeWorkers, 4), 3);
  EXPECT_EQ(knobs::get<int>(Knob::kServeWorkers), 3);

  EXPECT_DOUBLE_EQ(*knobs::find<double>(Knob::kTopkRatio, 0.5), 0.5);
  set(Knob::kTopkRatio, "0.25");
  EXPECT_DOUBLE_EQ(*knobs::find<double>(Knob::kTopkRatio, 0.5), 0.25);

  EXPECT_TRUE(knobs::get<bool>(Knob::kElastic, true));
  set(Knob::kElastic, "0");
  EXPECT_FALSE(knobs::get<bool>(Knob::kElastic, true));

  EXPECT_EQ(knobs::find<std::string>(Knob::kFlightDir), std::nullopt);
  set(Knob::kFlightDir, "/tmp/flight");
  EXPECT_EQ(knobs::find<std::string>(Knob::kFlightDir), "/tmp/flight");
}

TEST_F(KnobsTest, ParsesTypedValues) {
  EXPECT_EQ(knobs::parse<size_t>(Knob::kBucketBytes, "16384"), 16384U);
  EXPECT_EQ(knobs::default_value<size_t>(Knob::kBucketBytes), 1U << 20);
  EXPECT_DOUBLE_EQ(knobs::parse<double>(Knob::kStragglerFactor, "1e3"),
                   1000.0);
  EXPECT_TRUE(knobs::parse<bool>(Knob::kElastic, "1"));
  EXPECT_FALSE(knobs::parse<bool>(Knob::kElastic, "0"));
  EXPECT_EQ(knobs::parse<int>(Knob::kCommAlgo, "hier"), 2);
  // kEnum words map to enumerators by position.
  const auto level = [](const char* word) {
    return knobs::parse<LogLevel>(Knob::kLogLevel, word);
  };
  EXPECT_EQ(level("TRACE"), LogLevel::kTrace);
  EXPECT_EQ(level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(level("OFF"), LogLevel::kOff);
  EXPECT_EQ(knobs::default_value<LogLevel>(Knob::kLogLevel), LogLevel::kInfo);
}

TEST_F(KnobsTest, ValuesTheCodeUsedToAcceptSilentlyAreRejected) {
  // Each of these once parsed to something else without a word:
  // "abc" workers became 0, "12abc" a 12 ms lease, "junk" turned
  // elastic mode on.
  const std::vector<std::pair<Knob, const char*>> cases = {
      {Knob::kServeWorkers, "abc"},
      {Knob::kCommLeaseMs, "12abc"},
      {Knob::kElastic, "junk"},
  };
  for (const auto& [knob, text] : cases) {
    SCOPED_TRACE(text);
    set(knob, text);
    expect_rejected(knob, text, [knob] { (void)knobs::get<int64_t>(knob); });
  }
}

TEST_F(KnobsTest, BootstrapKnobsWarnAndKeepTheDefault) {
  // Read before main, where a throw would abort: "abc" used to bind
  // port 0, "debug" silently meant INFO. Now the same message goes to
  // stderr and the default stands.
  const std::vector<std::pair<Knob, const char*>> cases = {
      {Knob::kObsPort, "abc"},
      {Knob::kLogLevel, "debug"},
  };
  for (const auto& [knob, text] : cases) {
    SCOPED_TRACE(text);
    expect_rejected(knob, text, [&] { knobs::check(knob, text); });
    set(knob, text);
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(knobs::env_value(knob).has_value());
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(knobs::spec(knob).name), std::string::npos) << err;
    EXPECT_NE(err.find("keeping the default"), std::string::npos) << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(knobs::find<int>(Knob::kObsPort).has_value());
  EXPECT_EQ(knobs::get<LogLevel>(Knob::kLogLevel), LogLevel::kInfo);
  (void)::testing::internal::GetCapturedStderr();
}

TEST_F(KnobsTest, ConfigJsonShowsEffectiveValuesAndSources) {
  set(Knob::kCommAlgo, "tree");
  set(Knob::kBucketBytes, "65536");
  set(Knob::kTopkRatio, "0.25");
  set(Knob::kElastic, "1");
  set(Knob::kServeQueue, "lots");
  const std::string json = knobs::config_json();
  for (const char* want : {
           R"("DMIS_COMM_ALGO":{"value":"tree","source":"env"})",
           R"("DMIS_BUCKET_BYTES":{"value":"65536","source":"env"})",
           R"("DMIS_TOPK_RATIO":{"value":"0.25","source":"env"})",
           R"("DMIS_ELASTIC":{"value":"1","source":"env"})",
           R"("DMIS_KERNEL":{"value":"gemm","source":"default"})",
           R"("DMIS_STRAGGLER_FACTOR":{"value":"2.0","source":"default"})",
           R"("DMIS_OBS_PORT":{"value":null,"source":"default"})",
           R"("DMIS_SERVE_QUEUE":{"value":"16","source":"default"})",
       }) {
    EXPECT_NE(json.find(want), std::string::npos) << want << "\n" << json;
  }
  for (const KnobSpec& s : knobs::registry()) {
    std::string key(s.name);
    key.insert(0, 1, '"').append("\":{");
    EXPECT_NE(json.find(key), std::string::npos) << s.name;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

/// The README "Configuration" table: knob name -> (default, accepts).
std::map<std::string, std::pair<std::string, std::string>> readme_rows(
    std::set<std::string>& mentioned) {
  std::ifstream in(KNOBS_README_PATH);
  EXPECT_TRUE(in.good()) << KNOBS_README_PATH;
  std::map<std::string, std::pair<std::string, std::string>> rows;
  const std::regex knob_name("DMIS_[A-Z0-9_]+");
  const std::regex row(
      R"(^\| `(DMIS_[A-Z0-9_]+)` \| (.*?) \| (.*?) \| .* \|$)");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() != '|') continue;
    for (std::sregex_iterator it(line.begin(), line.end(), knob_name), end;
         it != end; ++it) {
      mentioned.insert(it->str());
    }
    std::smatch m;
    if (std::regex_match(line, m, row)) {
      rows[m[1].str()] = {m[2].str(), m[3].str()};
    }
  }
  return rows;
}

TEST_F(KnobsTest, ReadmeConfigurationTableMatchesRegistry) {
  std::set<std::string> mentioned;
  const auto rows = readme_rows(mentioned);
  for (const Forms& f : table()) {
    const KnobSpec& s = knobs::spec(f.knob);
    const auto it = rows.find(f.name);
    ASSERT_NE(it, rows.end()) << f.name << " has no README table row";
    const std::string want_default =
        s.default_text.empty() ? "unset"
                               : "`" + std::string(s.default_text) + "`";
    EXPECT_EQ(it->second.first, want_default) << f.name;
    std::string want_accepts;  // markdown escapes '|' inside a table
    for (const char c : knobs::accepted(f.knob)) {
      if (c == '|') want_accepts += '\\';
      want_accepts += c;
    }
    EXPECT_EQ(it->second.second, want_accepts) << f.name;
  }
  for (const std::string& name : mentioned) {
    if (name == "DMIS_SANITIZE") continue;  // a CMake option, not a knob
    bool known = false;
    for (const KnobSpec& s : knobs::registry()) known |= s.name == name;
    EXPECT_TRUE(known) << "README table names " << name
                       << ", which is not in the registry";
  }
}

}  // namespace
}  // namespace dmis
