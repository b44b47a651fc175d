// vcsearch-query — owner-side CLI client: sign a query, send it to a
// running vcsearch-serve instance, verify the response, print the results.
//
//   vcsearch-query --dir DIR --port P keyword [keyword...]
//   vcsearch-query --dir DIR --port P 'alpha AND (beta OR NOT gamma)' --top-k 5
//
// Positional arguments are joined into one query string.  Plain lowercase
// words mean conjunction (the legacy flat-keyword protocol); the uppercase
// operators AND / OR / NOT and parentheses select the boolean query
// language (docs/QUERY_LANGUAGE.md), as does --top-k.
//     --top-k K     ask for the K best documents by summed term frequency,
//                   server-ranked and verified against the proven postings
//     --profile     append the client-side stage table (verification,
//                   prime lookups, serialization) after the results
//     --fetch PATH  raw GET against the server (e.g. /metrics, /stats);
//                   prints the body and exits — a curl stand-in for
//                   scripts on minimal systems
//     --dump FILE   write the verified response's canonical byte encoding
//                   to FILE; responses are deterministic, so two runs of
//                   the same query against the same epoch dump identical
//                   bytes (the CI restart gate diffs them)
//     --trace-id X  sign the query with trace ID X ("auto" mints a random
//                   one); the server records a span tree under it — fetch
//                   with --fetch /traces/<id> (or /traces/<id>/chrome for
//                   Perfetto).  Default 0 keeps --dump byte-deterministic.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli_args.hpp"
#include "crypto/standard_params.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "support/errors.hpp"
#include "protocol/http.hpp"
#include "protocol/owner.hpp"

using namespace vc;

int main(int argc, char** argv) {
  const char* dir = arg_value(argc, argv, "--dir", nullptr);
  const char* port_s = arg_value(argc, argv, "--port", "8080");
  const char* fetch_path = arg_value(argc, argv, "--fetch", nullptr);
  const bool profile = has_flag(argc, argv, "--profile");
  std::uint16_t port = static_cast<std::uint16_t>(std::strtoul(port_s, nullptr, 10));

  if (fetch_path != nullptr) {
    try {
      std::fputs(http_request(port, "GET", fetch_path, "").c_str(), stdout);
    } catch (const Error& e) {
      std::fprintf(stderr, "fetch failed: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  const char* dump_path = arg_value(argc, argv, "--dump", nullptr);
  const char* trace_arg = arg_value(argc, argv, "--trace-id", nullptr);
  std::uint64_t trace_id = 0;
  if (trace_arg != nullptr) {
    trace_id = std::strcmp(trace_arg, "auto") == 0 ? obs::mint_trace_id()
                                                   : obs::parse_trace_id(trace_arg);
    if (trace_id == 0) {
      std::fprintf(stderr, "--trace-id expects 16 hex digits or \"auto\"\n");
      return 2;
    }
  }

  const char* topk_s = arg_value(argc, argv, "--top-k", "0");
  std::uint32_t top_k = static_cast<std::uint32_t>(std::strtoul(topk_s, nullptr, 10));

  std::vector<std::string> keywords;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dir") == 0 || std::strcmp(argv[i], "--port") == 0 ||
        std::strcmp(argv[i], "--fetch") == 0 || std::strcmp(argv[i], "--dump") == 0 ||
        std::strcmp(argv[i], "--trace-id") == 0 || std::strcmp(argv[i], "--top-k") == 0) {
      ++i;
      continue;
    }
    if (std::strcmp(argv[i], "--profile") == 0) continue;
    keywords.emplace_back(argv[i]);
  }
  if (dir == nullptr || keywords.empty()) {
    std::fprintf(stderr,
                 "usage: vcsearch-query --dir DIR [--port P] [--profile] [--dump FILE]"
                 " [--top-k K] keyword... | 'EXPR'\n"
                 "       boolean EXPR grammar: term, AND, OR, NOT, parentheses\n"
                 "       vcsearch-query --port P --fetch /metrics\n");
    return 2;
  }

  // The boolean query language engages when the query uses an operator or
  // parentheses, or when a ranking cutoff is requested; bare lowercase
  // keywords keep the legacy flat-conjunction protocol byte-for-byte.
  // Arguments are joined first so both `a AND b` and 'a AND b' (one quoted
  // argument) read identically.
  std::string query_text;
  for (const std::string& k : keywords) {
    if (!query_text.empty()) query_text += ' ';
    query_text += k;
  }
  bool expression = top_k != 0 ||
                    query_text.find_first_of("()") != std::string::npos;
  {
    std::string word;
    std::istringstream words(query_text);
    while (words >> word) {
      if (word == "AND" || word == "OR" || word == "NOT") expression = true;
    }
  }

  std::filesystem::path base(dir);
  SigningKey owner_key = SigningKey::load((base / "owner.key").string());
  SigningKey cloud_key = SigningKey::load((base / "cloud.key").string());

  // Reconstruct the verifier configuration from params.txt.
  VerifiableIndexConfig config;
  {
    std::ifstream params(base / "params.txt");
    std::string line;
    while (std::getline(params, line)) {
      auto eq = line.find('=');
      if (eq == std::string::npos) continue;
      std::string key = line.substr(0, eq);
      unsigned long value = std::strtoul(line.c_str() + eq + 1, nullptr, 10);
      if (key == "modulus_bits") config.modulus_bits = value;
      if (key == "rep_bits") config.rep_bits = value;
      if (key == "interval_size") config.interval_size = value;
      if (key == "bloom_m") config.bloom.counters = static_cast<std::uint32_t>(value);
    }
  }
  auto owner_ctx = AccumulatorContext::owner(
      standard_accumulator_modulus(config.modulus_bits),
      standard_qr_generator(config.modulus_bits));

  DataOwner owner(owner_ctx, owner_key, cloud_key.verify_key(), config);
  SignedQuery q;
  try {
    q = expression ? owner.issue_expression_query(query_text, top_k, trace_id)
                   : owner.issue_query(keywords, trace_id);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "malformed query: %s\n", e.what());
    return 2;
  }
  SearchResponse resp;
  try {
    resp = http_search(port, q);
  } catch (const Error& e) {
    // The server answers engine refusals (e.g. a query that is not
    // positive-guarded) with a 400 whose body carries the reason.
    std::fprintf(stderr, "query failed: %s\n", e.what());
    return 1;
  }
  try {
    owner.receive_response(resp);
  } catch (const VerifyError& e) {
    std::fprintf(stderr, "VERIFICATION FAILED — the cloud misbehaved: %s\n", e.what());
    return 1;
  }

  if (dump_path != nullptr) {
    ByteWriter w;
    resp.write(w);
    std::ofstream out(dump_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for write\n", dump_path);
      return 1;
    }
    out.write(reinterpret_cast<const char*>(w.data().data()),
              static_cast<std::streamsize>(w.size()));
  }

  if (trace_id != 0) {
    std::printf("trace %s (fetch: --fetch /traces/%s)\n",
                obs::trace_id_hex(resp.trace_id).c_str(),
                obs::trace_id_hex(resp.trace_id).c_str());
  }

  if (const auto* multi = std::get_if<MultiKeywordResponse>(&resp.body)) {
    std::printf("%zu documents match all %zu keywords (proof %.1f KB, %s scheme) "
                "[VERIFIED]\n",
                multi->result.docs.size(), multi->result.keywords.size(),
                static_cast<double>(resp.proof_size_bytes()) / 1024,
                scheme_name(multi->proof.scheme));
    for (std::uint64_t doc : multi->result.docs) {
      std::printf("  doc %llu", static_cast<unsigned long long>(doc));
      for (std::size_t k = 0; k < multi->result.keywords.size(); ++k) {
        for (const Posting& p : multi->result.postings[k]) {
          if (p.doc_id == doc) std::printf("  %s:%u", multi->result.keywords[k].c_str(), p.tf);
        }
      }
      std::printf("\n");
    }
  } else if (const auto* boolean = std::get_if<BooleanQueryResponse>(&resp.body)) {
    std::printf("%zu documents satisfy %s (proof %.1f KB, %s scheme) [VERIFIED]\n",
                boolean->docs.size(), to_string(boolean->expr).c_str(),
                static_cast<double>(resp.proof_size_bytes()) / 1024,
                scheme_name(boolean->proof.scheme));
    if (boolean->top_k != 0) {
      std::printf("top-%u by summed tf:\n", boolean->top_k);
      for (std::size_t i = 0; i < boolean->ranked.size(); ++i) {
        std::printf("  #%zu doc %u score %llu\n", i + 1, boolean->ranked[i].doc_id,
                    static_cast<unsigned long long>(boolean->ranked[i].score));
      }
    } else {
      for (std::uint64_t doc : boolean->docs) {
        std::printf("  doc %llu", static_cast<unsigned long long>(doc));
        for (std::size_t k = 0; k < boolean->terms.size(); ++k) {
          for (const Posting& p : boolean->postings[k]) {
            if (p.doc_id == doc) std::printf("  %s:%u", boolean->terms[k].c_str(), p.tf);
          }
        }
        std::printf("\n");
      }
    }
  } else if (const auto* single = std::get_if<SingleKeywordResponse>(&resp.body)) {
    std::printf("%zu documents contain \"%s\" (signature proof) [VERIFIED]\n",
                single->postings.size(), single->keyword.c_str());
  } else {
    const auto& unknown = std::get<UnknownKeywordResponse>(resp.body);
    std::printf("keyword \"%s\" is not in the indexed dictionary "
                "(gap proof, %zu bytes) [VERIFIED]\n",
                unknown.keyword.c_str(), resp.proof_size_bytes());
  }
  if (profile) {
    std::printf("\nclient-side stage profile\n%s",
                obs::render_profile(obs::MetricsRegistry::global()).c_str());
  }
  return 0;
}
