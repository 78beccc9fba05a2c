// Latent Dirichlet Allocation via collapsed Gibbs sampling
// (Griffiths & Steyvers 2004), the algorithm the paper uses to cluster the
// IBM ticket corpus into ten topics (§7.1.1, Table 2).

#ifndef SRC_NLP_LDA_H_
#define SRC_NLP_LDA_H_

#include <random>
#include <string>
#include <vector>

#include "src/nlp/corpus.h"

namespace witnlp {

struct LdaOptions {
  int num_topics = 10;
  int iterations = 300;
  double alpha = 0.5;   // document-topic prior
  double beta = 0.01;   // topic-word prior
  uint32_t seed = 42;
};

struct TopicWord {
  std::string word;
  double probability = 0.0;
};

class LdaModel {
 public:
  // Trains on the corpus (which must outlive the model).
  LdaModel(const Corpus* corpus, LdaOptions options);

  void Train();

  int num_topics() const { return options_.num_topics; }

  // phi_k(w): the topic-word distribution, read from the table Train()
  // builds.
  double TopicWordProb(int topic, int word_id) const;
  // The trained counts phi is computed from: n_{k,w} and n_k.
  int TopicWordCount(int topic, int word_id) const;
  int TopicTotal(int topic) const;
  // theta_d(k): the per-training-document topic distribution.
  std::vector<double> DocTopicDist(size_t doc_index) const;

  // Top `n` words of a topic, by probability.
  std::vector<TopicWord> TopWords(int topic, size_t n) const;

  // Folds in an unseen document (fixed topic-word counts) and returns its
  // topic distribution.
  std::vector<double> InferTopics(const std::vector<int>& word_ids, int iterations = 50,
                                  uint32_t seed = 7) const;
  // Argmax of InferTopics.
  int MostLikelyTopic(const std::vector<int>& word_ids) const;

  // Average per-token log likelihood — decreases in perplexity indicate the
  // sampler converged.
  double LogLikelihoodPerToken() const;

 private:
  void Initialize();

  const Corpus* corpus_;
  LdaOptions options_;
  std::mt19937 rng_;

  // Count matrices (flattened), following Gibbs-LDA conventions.
  std::vector<int> topic_word_;   // K x V: n_{k,w}
  std::vector<int> topic_total_;  // K:     n_k
  std::vector<int> doc_topic_;    // D x K: n_{d,k}
  std::vector<std::vector<int>> assignments_;  // z for every token
  // Word-major phi, fixed once training ends: phi_[w*K + k] =
  // (n_{k,w} + beta) / (n_k + V*beta). Fold-in reads one contiguous row
  // per token instead of dividing per token, topic and iteration.
  std::vector<double> phi_;
  bool trained_ = false;
};

}  // namespace witnlp

#endif  // SRC_NLP_LDA_H_
