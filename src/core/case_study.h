// The §7.1 case study end-to-end: train the topic model on a historical
// corpus, collect an evaluation period of tickets, classify each one,
// deploy the (reviewed) class's perforated container on the target machine,
// replay the admin's required operations inside it, and account for every
// permission-broker fallback — reproducing Table 4 and the isolation
// aggregates the paper reports (62% full-filesystem-view denial, 98%
// network-view isolation, ...).

#ifndef SRC_CORE_CASE_STUDY_H_
#define SRC_CORE_CASE_STUDY_H_

#include <string>
#include <vector>

#include "src/core/framework.h"
#include "src/nlp/lda.h"

namespace watchit {

struct CaseStudyConfig {
  CaseStudyConfig() {
    // The paper ran LDA with 7-14 topics and picked the best fit. For
    // classification the framework benefits from a little topic slack over
    // the 11 classes; Table 2's rendering uses its own 10-topic model.
    lda.num_topics = 12;
  }

  size_t train_tickets = 2000;
  size_t eval_tickets = 398;
  uint32_t train_seed = 11;
  uint32_t eval_seed = 17;
  double eval_typo_rate = 0.03;
  witnlp::LdaOptions lda;
  bool use_naive_bayes = false;  // LDA alignment by default, as in the paper
};

struct ClassRow {
  std::string cls;
  std::string description;
  size_t count = 0;
  double share = 0.0;       // % of total tickets
  double precision = 0.0;   // classification precision (recall per true class)
  double satisfied = 0.0;   // % satisfied by the container alone
  double pb_proc = 0.0;     // % of tickets using the broker per category
  double pb_fs = 0.0;
  double pb_net = 0.0;
};

struct CaseStudyResult {
  std::vector<ClassRow> rows;  // T-1..T-11
  ClassRow total;

  // Aggregate isolation statistics over the evaluation tickets.
  double full_fs_view_denied = 0.0;     // paper: 62%
  double process_view_isolated = 0.0;   // paper: 36%
  double network_view_isolated = 0.0;   // paper: 98%
  double web_access_allowed = 0.0;      // paper: 32% (T-6, whitelisted only)

  // Monitoring coverage: every operation ITFS gated, from the sessions'
  // tallies (denials and rule hits are also chained records).
  uint64_t fs_ops_logged = 0;
  uint64_t broker_requests = 0;
  uint64_t broker_denied = 0;
  bool secure_log_intact = false;
};

CaseStudyResult RunCaseStudy(const CaseStudyConfig& config);

// Renders the result in the layout of Table 4.
std::string FormatTable4(const CaseStudyResult& result);

}  // namespace watchit

#endif  // SRC_CORE_CASE_STUDY_H_
