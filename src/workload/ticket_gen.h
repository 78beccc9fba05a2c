// Synthetic IT-ticket generator standing in for the IBM Research IT
// database (66k historical + 398 evaluation tickets).
//
// Each of the ten Linux ticket classes (plus "other") carries a vocabulary
// seeded with the Table 2 topic words; ticket text mixes class words with a
// shared background vocabulary and entity tokens (IPs, server names,
// storage paths) that the NLP obfuscator later normalizes. Evaluation
// tickets additionally carry the *required operations* an admin performs to
// resolve them, with per-class probabilities of needing something beyond
// the class container's view — calibrated to Table 4's broker columns.

#ifndef SRC_WORKLOAD_TICKET_GEN_H_
#define SRC_WORKLOAD_TICKET_GEN_H_

#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/workload/ops.h"

namespace witload {

inline constexpr int kNumTicketClasses = 11;  // T-1 .. T-10 + T-11 "other"

// Canonical class names: "T-1" ... "T-11".
std::string TicketClassName(int index);  // index is 1-based
int TicketClassIndex(const std::string& name);
std::string TicketClassDescription(int index);

struct GeneratedTicket {
  std::string id;
  std::string text;        // free text as the end-user wrote it
  std::string true_class;  // "T-1" .. "T-11"
  std::vector<RequiredOp> ops;
};

class TicketGenerator {
 public:
  struct Options {
    uint32_t seed = 1234;
    // Typo probability per word (exercises spelling correction).
    double typo_rate = 0.0;
    // Probability a content word is drawn from the shared background
    // vocabulary instead of the class vocabulary (topic overlap / noise).
    double background_rate = 0.28;
    // Generate required operations (evaluation tickets need them; the
    // historical training corpus does not).
    bool with_ops = false;
  };

  TicketGenerator() : TicketGenerator(Options()) {}
  explicit TicketGenerator(Options options);

  // The paper's historical class distribution (Figure 7), T-1..T-10 (no
  // "other" among clustered history).
  static std::vector<double> HistoricalDistribution();
  // The evaluation-period distribution (Table 4 column 1), T-1..T-11.
  static std::vector<double> EvaluationDistribution();

  // Generates one ticket of a specific class (1-based index).
  GeneratedTicket Generate(int class_index);
  // Generates `n` tickets with classes drawn from `distribution`
  // (probabilities for classes 1..distribution.size()).
  std::vector<GeneratedTicket> GenerateBatch(size_t n, const std::vector<double>& distribution);

  // Class vocabulary (exposed for tests).
  static const std::vector<std::string>& ClassVocabulary(int index);

 private:
  std::string MakeText(int class_index);
  std::vector<RequiredOp> MakeOps(int class_index);
  std::string MaybeTypo(std::string word);
  std::string RandomEntity();

  Options options_;
  std::mt19937 rng_;
  uint64_t next_ticket_ = 1;
};

}  // namespace witload

#endif  // SRC_WORKLOAD_TICKET_GEN_H_
