// Ticket classifiers.
//
// LdaClassifier reproduces the paper's workflow: an unsupervised LDA model
// whose topics are aligned to ticket classes by majority vote over labelled
// training documents, then used to predict the class of new tickets
// ("We also predict the class of each ticket using our LDA model, after
// applying spelling correction", §7.1.3). A multinomial Naive Bayes
// classifier is provided as a supervised baseline.

#ifndef SRC_NLP_CLASSIFIER_H_
#define SRC_NLP_CLASSIFIER_H_

#include <map>
#include <string>
#include <vector>

#include "src/nlp/corpus.h"
#include "src/nlp/lda.h"

namespace witnlp {

class LdaClassifier {
 public:
  // `model` must be trained on `corpus`; both must outlive the classifier.
  // Topic -> label alignment uses the corpus's document labels. Labels that
  // end up with no aligned topic (rare classes drowned by Gibbs smoothing)
  // get a unigram likelihood-ratio rejection test: the LDA prediction is
  // overridden only when an orphan label's model clearly wins on the
  // document's words.
  LdaClassifier(const LdaModel* model, const Corpus* corpus);

  // Predicted label for a tokenized (preprocessed) ticket.
  std::string Classify(const std::vector<std::string>& tokens) const;

  // The label each topic was aligned to.
  const std::vector<std::string>& topic_labels() const { return topic_labels_; }

 private:
  double UnigramLogProb(const std::string& label, const std::vector<int>& ids) const;

  const LdaModel* model_;
  const Corpus* corpus_;
  std::vector<std::string> topic_labels_;
  std::vector<std::string> orphan_labels_;
  // Per-label unigram models (Laplace-smoothed), for the rejection test.
  std::map<std::string, std::vector<double>> label_log_prob_;
  std::map<std::string, double> label_log_prior_;
};

class NaiveBayesClassifier {
 public:
  // Trains a multinomial NB with Laplace smoothing on the labelled corpus.
  explicit NaiveBayesClassifier(const Corpus* corpus);

  std::string Classify(const std::vector<std::string>& tokens) const;
  const std::vector<std::string>& labels() const { return labels_; }

 private:
  const Corpus* corpus_;
  std::vector<std::string> labels_;
  std::map<std::string, size_t> label_index_;
  std::vector<double> log_prior_;              // per label
  std::vector<std::vector<double>> log_cond_;  // label x word
};

// Confusion-matrix style evaluation helper.
struct ClassificationReport {
  std::map<std::string, double> precision;  // per true label: correct / predicted-as
  std::map<std::string, double> recall;
  double accuracy = 0.0;
  size_t total = 0;
};

ClassificationReport EvaluateClassifier(
    const std::vector<std::pair<std::string, std::string>>& truth_vs_predicted);

}  // namespace witnlp

#endif  // SRC_NLP_CLASSIFIER_H_
