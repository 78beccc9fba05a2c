#include "src/core/framework.h"

namespace watchit {

ItFramework::ItFramework(Config config) : config_(config) {}

ItFramework::~ItFramework() = default;

void ItFramework::EnableMetrics(witobs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    return;
  }
  registry->SetHelp("watchit_framework_train_latency_ns",
                    "Wall-clock LDA training time over the ticket history");
  registry->SetHelp("watchit_framework_classify_latency_ns",
                    "Wall-clock ticket classification time");
  registry->SetHelp("watchit_framework_classifications_total",
                    "Ticket classifications by predicted class");
  train_latency_ = registry->GetHistogram("watchit_framework_train_latency_ns");
  classify_latency_ = registry->GetHistogram("watchit_framework_classify_latency_ns");
}

std::vector<std::string> ItFramework::Preprocess(const std::string& text) const {
  std::vector<std::string> tokens = pipeline_.Process(text);
  if (config_.spell_correct && spell_ != nullptr) {
    tokens = spell_->Correct(tokens);
  }
  return tokens;
}

void ItFramework::TrainOnHistory(
    const std::vector<std::pair<std::string, std::string>>& text_and_label) {
  witobs::ScopedTimer timer(train_latency_);
  for (const auto& [text, label] : text_and_label) {
    corpus_.AddDocument(pipeline_.Process(text), label);
  }
  spell_ = std::make_unique<witnlp::SpellCorrector>(&corpus_.vocab());
  lda_ = std::make_unique<witnlp::LdaModel>(&corpus_, config_.lda);
  lda_->Train();
  lda_classifier_ = std::make_unique<witnlp::LdaClassifier>(lda_.get(), &corpus_);
  if (config_.use_naive_bayes) {
    nb_classifier_ = std::make_unique<witnlp::NaiveBayesClassifier>(&corpus_);
  }
}

std::string ItFramework::Classify(const std::string& text) const {
  witobs::ScopedTimer timer(classify_latency_);
  std::string result;
  if (!trained()) {
    result = "T-11";
  } else {
    std::vector<std::string> tokens = Preprocess(text);
    result = config_.use_naive_bayes && nb_classifier_ != nullptr
                 ? nb_classifier_->Classify(tokens)
                 : lda_classifier_->Classify(tokens);
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("watchit_framework_classifications_total", {{"class", result}})
        ->Increment();
  }
  return result;
}

}  // namespace watchit
