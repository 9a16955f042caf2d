// Seeded mutation fuzzing of the `key = value` grammar (ConfigMap::Parse) and
// the protocol v1 decoders (ParseRequest / ParseResponse). The corpus is the
// service protocol's golden messages plus every committed configs/*.cfg; each
// input is mutated with a fixed seed (byte flips, truncation, line
// duplication, inserted '=', '#', '%', '\r' and NUL bytes). Every mutant must
// come back as a value or a Status — never a crash, which the ASan/UBSan leg
// turns into a failure — and whatever a decoder accepts must re-serialise and
// re-parse to an equal message.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "common/random.h"
#include "experiments/config.h"
#include "service/protocol.h"

namespace oasis {
namespace {

using experiments::ConfigMap;
using service::ParseRequest;
using service::ParseResponse;
using service::Request;
using service::Response;
using service::SerializeRequest;
using service::SerializeResponse;

/// Mutants drawn per corpus entry.
constexpr int kMutantsPerSeed = 2000;

std::vector<std::string> GoldenMessages() {
  std::vector<std::string> corpus = {
      "oasis_service_protocol = 1\n"
      "type = start_session\n"
      "scenario = stripe-f90\n"
      "method = oasis\n"
      "budget = 1000\n"
      "checkpoint_every = 100\n"
      "strata = 30\n"
      "seed = 7\n"
      "stream = 3\n",
      "oasis_service_protocol = 1\n"
      "type = request_labels\n"
      "session = 12\n"
      "labels = 250\n"
      "wait = true\n",
      "oasis_service_protocol = 1\n"
      "type = get_estimate\n"
      "session = 5\n",
      "oasis_service_protocol = 1\n"
      "type = checkpoint\n"
      "session = 5\n",
      "oasis_service_protocol = 1\n"
      "type = close_session\n"
      "session = 5\n",
      "oasis_service_protocol = 1\n"
      "type = label_arrived\n"
      "session = 4\n"
      "labels_consumed = 200\n"
      "iterations = 210\n"
      "f_alpha = 0.5\n"
      "f_defined = true\n"
      "precision = 0.25\n"
      "precision_defined = true\n"
      "recall = 0.75\n"
      "recall_defined = false\n"
      "done = false\n"
      "truncated = false\n"
      "labels_charged = 100\n",
      "oasis_service_protocol = 1\n"
      "type = checkpoint_ack\n"
      "session = 4\n"
      "labels_consumed = 200\n"
      "done = true\n"
      "truncated = false\n"
      "budgets = 100,200\n"
      "f_alpha = 0.5,0.625\n"
      "f_defined = 1,1\n",
      "oasis_service_protocol = 1\n"
      "type = error_reply\n"
      "code = NotFound\n"
      "message = no session with id 9\n",
  };
  // A start_session carrying a full oracle stack, and a hostile error text.
  service::StartSession start;
  start.spec.scenario = "noisy-flip05";
  FaultInjectionOptions fault;
  fault.transient_failure_rate = 0.05;
  fault.timeout_rate = 0.01;
  fault.item_drop_rate = 0.02;
  start.spec.stack.fault_injection = fault;
  start.spec.stack.remote = RemoteOracleOptions{};
  RetryPolicy retry;
  retry.max_attempts = 8;
  start.spec.stack.retry = retry;
  corpus.push_back(SerializeRequest(start));
  corpus.push_back(SerializeResponse(
      service::ErrorReply{"InvalidArgument", "  100% #done\nnext = line\t"}));
  return corpus;
}

std::vector<std::string> ConfigFiles() {
  std::vector<std::string> corpus;
  const std::filesystem::path dir =
      std::filesystem::path(OASIS_SOURCE_DIR) / "configs";
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".cfg") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // Fixed order: fixed mutants.
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    corpus.push_back(text.str());
  }
  return corpus;
}

/// One seeded mutation of `text`.
void Mutate(Rng& rng, std::string* text) {
  static constexpr char kInserts[] = {'=', '#', '%', '\r', '\0', '\n', ','};
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.NextBounded(static_cast<uint64_t>(n)));
  };
  switch (rng.NextBounded(4)) {
    case 0:  // Byte flip: one random bit, or a whole random byte.
      if (!text->empty()) {
        const size_t at = pick(text->size());
        (*text)[at] = rng.NextBernoulli(0.5)
                          ? static_cast<char>((*text)[at] ^ (1 << pick(8)))
                          : static_cast<char>(rng.NextUint64());
      }
      break;
    case 1:  // Truncation.
      text->resize(pick(text->size() + 1));
      break;
    case 2: {  // Duplicate one line in place.
      if (text->empty()) break;
      const size_t at = pick(text->size());
      const size_t begin = text->rfind('\n', at) == std::string::npos
                               ? 0
                               : text->rfind('\n', at) + 1;
      size_t end = text->find('\n', at);
      end = end == std::string::npos ? text->size() : end + 1;
      text->insert(begin, text->substr(begin, end - begin));
      break;
    }
    default:  // Insert a grammar-significant byte.
      text->insert(pick(text->size() + 1), 1,
                   kInserts[pick(sizeof(kInserts))]);
      break;
  }
}

/// Every mutant of every corpus entry, deterministically.
std::vector<std::string> Mutants(const std::vector<std::string>& corpus,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> out;
  for (const std::string& entry : corpus) {
    out.push_back(entry);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      std::string mutant = entry;
      const uint64_t rounds = 1 + rng.NextBounded(3);
      for (uint64_t r = 0; r < rounds; ++r) Mutate(rng, &mutant);
      out.push_back(std::move(mutant));
    }
  }
  return out;
}

std::string Printable(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20 ||
               static_cast<unsigned char>(c) >= 0x7f) {
      out += "\\x" + std::to_string(static_cast<unsigned char>(c));
    } else {
      out += c;
    }
  }
  return out;
}

/// ConfigMap: every getter on every key returns a value or a Status, and an
/// accepted map re-emitted as `key = value` lines parses back to itself.
void CheckConfigMap(const std::string& text, int* accepted) {
  const Result<ConfigMap> parsed = ConfigMap::Parse(text);
  if (!parsed.ok()) {
    EXPECT_FALSE(parsed.status().message().empty());
    return;
  }
  ++*accepted;
  const ConfigMap& config = parsed.ValueOrDie();
  std::string emitted;
  for (const std::string& key : config.Keys()) {
    (void)config.GetInt64(key);
    (void)config.GetDouble(key);
    (void)config.GetBool(key);
    (void)config.GetStringList(key);
    experiments::AppendConfigLine(key, config.GetString(key).ValueOrDie(),
                                  &emitted);
  }
  EXPECT_TRUE(config.CheckAllKeysUsed().ok());
  const Result<ConfigMap> again = ConfigMap::Parse(emitted);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << " on "
                          << Printable(emitted);
  ASSERT_EQ(again.ValueOrDie().Keys(), config.Keys()) << Printable(text);
  for (const std::string& key : config.Keys()) {
    EXPECT_EQ(again.ValueOrDie().GetString(key).ValueOrDie(),
              config.GetString(key).ValueOrDie())
        << Printable(text);
  }
}

/// A decoder's accepted message re-serialises and re-parses to an equal
/// message. The canonical bytes are the equality: the encoding is injective
/// (percent-escapes decode exactly, %.17g numbers strtod back exactly).
template <typename Message, typename Parse, typename Serialize>
void CheckDecoder(const std::string& text, Parse parse, Serialize serialize,
                  int* accepted) {
  const Result<Message> parsed = parse(text);
  if (!parsed.ok()) {
    EXPECT_FALSE(parsed.status().message().empty());
    return;
  }
  ++*accepted;
  const std::string bytes = serialize(parsed.ValueOrDie());
  const Result<Message> again = parse(bytes);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << " re-parsing "
                          << Printable(bytes) << " from " << Printable(text);
  EXPECT_EQ(again.ValueOrDie().index(), parsed.ValueOrDie().index());
  EXPECT_EQ(serialize(again.ValueOrDie()), bytes) << Printable(text);
}

TEST(WireFuzzTest, CorpusIsComplete) {
  EXPECT_GE(ConfigFiles().size(), 5u);
  EXPECT_EQ(GoldenMessages().size(), 10u);
}

TEST(WireFuzzTest, ConfigMapNeverCrashesAndRoundTrips) {
  std::vector<std::string> corpus = ConfigFiles();
  const std::vector<std::string> golden = GoldenMessages();
  corpus.insert(corpus.end(), golden.begin(), golden.end());
  int accepted = 0;
  const std::vector<std::string> mutants = Mutants(corpus, 0xf022);
  for (const std::string& text : mutants) CheckConfigMap(text, &accepted);
  // Both outcomes must be exercised, or the corpus/mutators went stale.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, static_cast<int>(mutants.size()));
}

TEST(WireFuzzTest, DecodersNeverCrashAndRoundTrip) {
  const std::vector<std::string> mutants = Mutants(GoldenMessages(), 0xdec0);
  int requests = 0;
  int responses = 0;
  for (const std::string& text : mutants) {
    CheckDecoder<Request>(
        text, [](const std::string& t) { return ParseRequest(t); },
        [](const Request& r) { return SerializeRequest(r); }, &requests);
    CheckDecoder<Response>(
        text, [](const std::string& t) { return ParseResponse(t); },
        [](const Response& r) { return SerializeResponse(r); }, &responses);
  }
  EXPECT_GT(requests, 0);
  EXPECT_GT(responses, 0);
  EXPECT_LT(requests + responses, static_cast<int>(mutants.size()));
}

}  // namespace
}  // namespace oasis
