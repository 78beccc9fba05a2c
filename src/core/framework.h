// The IT framework (paper Figure 3): receives free-text tickets, classifies
// them against the trained topic model ("Img = classify(Ticket, History)"),
// and selects the perforated-container image for deployment.

#ifndef SRC_CORE_FRAMEWORK_H_
#define SRC_CORE_FRAMEWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/ticket.h"
#include "src/nlp/classifier.h"
#include "src/nlp/corpus.h"
#include "src/nlp/lda.h"
#include "src/nlp/spell.h"
#include "src/nlp/text.h"
#include "src/obs/metrics.h"

namespace watchit {

class ItFramework {
 public:
  struct Config {
    witnlp::LdaOptions lda;  // defaults: 10 topics, 300 iterations
    // Use the supervised Naive Bayes classifier instead of LDA alignment.
    bool use_naive_bayes = false;
    bool spell_correct = true;
  };

  ItFramework() : ItFramework(Config()) {}
  explicit ItFramework(Config config);
  ~ItFramework();

  // Trains the topic model on historical tickets (text + ground-truth class
  // labels, which the IT department's manual dispatch provides).
  void TrainOnHistory(const std::vector<std::pair<std::string, std::string>>& text_and_label);

  bool trained() const { return lda_ != nullptr; }

  // Classifies a ticket's free text into "T-1".."T-11". Safe to call from
  // many threads at once on a trained framework. The supervisor review
  // ("reviewed by the user or a supervisor") is applied by the caller to
  // this one prediction: TicketWorkflow::Prepare, the case study.
  std::string Classify(const std::string& text) const;

  // Topic model access for the Table 2 bench.
  const witnlp::LdaModel* lda() const { return lda_.get(); }
  const witnlp::Corpus& corpus() const { return corpus_; }

  // Wires the framework into the observability layer: LDA training and
  // classification wall-clock latency histograms plus a per-class
  // classification counter. Unlike the ITFS/broker series these measure
  // real compute time — the topic model is genuine work, not simulation.
  void EnableMetrics(witobs::MetricsRegistry* registry);

 private:
  std::vector<std::string> Preprocess(const std::string& text) const;

  Config config_;
  witnlp::TextPipeline pipeline_;
  witnlp::Corpus corpus_;
  std::unique_ptr<witnlp::LdaModel> lda_;
  std::unique_ptr<witnlp::LdaClassifier> lda_classifier_;
  std::unique_ptr<witnlp::NaiveBayesClassifier> nb_classifier_;
  std::unique_ptr<witnlp::SpellCorrector> spell_;

  // Observability wiring (all null when metrics are disabled).
  witobs::MetricsRegistry* metrics_ = nullptr;
  witobs::Histogram* train_latency_ = nullptr;
  witobs::Histogram* classify_latency_ = nullptr;
};

}  // namespace watchit

#endif  // SRC_CORE_FRAMEWORK_H_
