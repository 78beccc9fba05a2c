#include "src/nlp/lda.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace witnlp {

LdaModel::LdaModel(const Corpus* corpus, LdaOptions options)
    : corpus_(corpus), options_(options), rng_(options.seed) {}

void LdaModel::Initialize() {
  const size_t K = static_cast<size_t>(options_.num_topics);
  const size_t V = corpus_->vocab().size();
  const size_t D = corpus_->size();
  topic_word_.assign(K * V, 0);
  topic_total_.assign(K, 0);
  doc_topic_.assign(D * K, 0);
  assignments_.assign(D, {});

  std::uniform_int_distribution<int> topic_dist(0, options_.num_topics - 1);
  for (size_t d = 0; d < D; ++d) {
    const auto& words = corpus_->docs()[d].word_ids;
    assignments_[d].resize(words.size());
    for (size_t i = 0; i < words.size(); ++i) {
      int k = topic_dist(rng_);
      assignments_[d][i] = k;
      ++topic_word_[static_cast<size_t>(k) * V + static_cast<size_t>(words[i])];
      ++topic_total_[static_cast<size_t>(k)];
      ++doc_topic_[d * K + static_cast<size_t>(k)];
    }
  }
}

void LdaModel::Train() {
  Initialize();
  const size_t K = static_cast<size_t>(options_.num_topics);
  const size_t V = corpus_->vocab().size();
  const double alpha = options_.alpha;
  const double beta = options_.beta;
  const double v_beta = static_cast<double>(V) * beta;
  std::vector<double> weights(K);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  for (int iter = 0; iter < options_.iterations; ++iter) {
    for (size_t d = 0; d < corpus_->size(); ++d) {
      const auto& words = corpus_->docs()[d].word_ids;
      for (size_t i = 0; i < words.size(); ++i) {
        const size_t w = static_cast<size_t>(words[i]);
        const size_t old_k = static_cast<size_t>(assignments_[d][i]);
        // Remove the token from the counts.
        --topic_word_[old_k * V + w];
        --topic_total_[old_k];
        --doc_topic_[d * K + old_k];
        // Full conditional.
        double total = 0.0;
        for (size_t k = 0; k < K; ++k) {
          double p = (static_cast<double>(topic_word_[k * V + w]) + beta) /
                     (static_cast<double>(topic_total_[k]) + v_beta) *
                     (static_cast<double>(doc_topic_[d * K + k]) + alpha);
          total += p;
          weights[k] = total;
        }
        double r = uniform(rng_) * total;
        size_t new_k =
            static_cast<size_t>(std::lower_bound(weights.begin(), weights.end(), r) -
                                weights.begin());
        if (new_k >= K) {
          new_k = K - 1;
        }
        assignments_[d][i] = static_cast<int>(new_k);
        ++topic_word_[new_k * V + w];
        ++topic_total_[new_k];
        ++doc_topic_[d * K + new_k];
      }
    }
  }
  // The counts are final: tabulate phi once, word-major, with the exact
  // quotient the sampler above used.
  phi_.resize(V * K);
  for (size_t w = 0; w < V; ++w) {
    for (size_t k = 0; k < K; ++k) {
      phi_[w * K + k] = (static_cast<double>(topic_word_[k * V + w]) + beta) /
                        (static_cast<double>(topic_total_[k]) + v_beta);
    }
  }
  trained_ = true;
}

double LdaModel::TopicWordProb(int topic, int word_id) const {
  assert(trained_);
  return phi_[static_cast<size_t>(word_id) * static_cast<size_t>(options_.num_topics) +
              static_cast<size_t>(topic)];
}

int LdaModel::TopicWordCount(int topic, int word_id) const {
  return topic_word_[static_cast<size_t>(topic) * corpus_->vocab().size() +
                     static_cast<size_t>(word_id)];
}

int LdaModel::TopicTotal(int topic) const { return topic_total_[static_cast<size_t>(topic)]; }

std::vector<double> LdaModel::DocTopicDist(size_t doc_index) const {
  assert(trained_);
  const size_t K = static_cast<size_t>(options_.num_topics);
  std::vector<double> out(K);
  double denom = static_cast<double>(corpus_->docs()[doc_index].word_ids.size()) +
                 static_cast<double>(K) * options_.alpha;
  for (size_t k = 0; k < K; ++k) {
    out[k] = (static_cast<double>(doc_topic_[doc_index * K + k]) + options_.alpha) / denom;
  }
  return out;
}

std::vector<TopicWord> LdaModel::TopWords(int topic, size_t n) const {
  assert(trained_);
  const size_t V = corpus_->vocab().size();
  std::vector<std::pair<double, int>> scored;
  scored.reserve(V);
  for (size_t w = 0; w < V; ++w) {
    scored.emplace_back(TopicWordProb(topic, static_cast<int>(w)), static_cast<int>(w));
  }
  size_t take = std::min(n, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(take), scored.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<TopicWord> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back({corpus_->vocab().WordOf(scored[i].second), scored[i].first});
  }
  return out;
}

std::vector<double> LdaModel::InferTopics(const std::vector<int>& word_ids, int iterations,
                                          uint32_t seed) const {
  assert(trained_);
  const size_t K = static_cast<size_t>(options_.num_topics);
  const double alpha = options_.alpha;

  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> topic_dist(0, options_.num_topics - 1);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  std::vector<int> local_doc_topic(K, 0);
  std::vector<int> z(word_ids.size());
  for (size_t i = 0; i < word_ids.size(); ++i) {
    z[i] = topic_dist(rng);
    ++local_doc_topic[static_cast<size_t>(z[i])];
  }
  std::vector<double> weights(K);
  for (int iter = 0; iter < iterations; ++iter) {
    for (size_t i = 0; i < word_ids.size(); ++i) {
      // Topic-word counts stay fixed at their trained values (fold-in), so
      // the token's phi row is the same on every iteration.
      const double* phi = &phi_[static_cast<size_t>(word_ids[i]) * K];
      const size_t old_k = static_cast<size_t>(z[i]);
      --local_doc_topic[old_k];
      double total = 0.0;
      for (size_t k = 0; k < K; ++k) {
        double p = phi[k] * (static_cast<double>(local_doc_topic[k]) + alpha);
        total += p;
        weights[k] = total;
      }
      double r = uniform(rng) * total;
      size_t new_k = static_cast<size_t>(
          std::lower_bound(weights.begin(), weights.end(), r) - weights.begin());
      if (new_k >= K) {
        new_k = K - 1;
      }
      z[i] = static_cast<int>(new_k);
      ++local_doc_topic[new_k];
    }
  }
  std::vector<double> out(K);
  double denom =
      static_cast<double>(word_ids.size()) + static_cast<double>(K) * alpha;
  for (size_t k = 0; k < K; ++k) {
    out[k] = (static_cast<double>(local_doc_topic[k]) + alpha) / denom;
  }
  return out;
}

int LdaModel::MostLikelyTopic(const std::vector<int>& word_ids) const {
  std::vector<double> dist = InferTopics(word_ids);
  return static_cast<int>(std::max_element(dist.begin(), dist.end()) - dist.begin());
}

double LdaModel::LogLikelihoodPerToken() const {
  assert(trained_);
  double ll = 0.0;
  uint64_t tokens = 0;
  for (size_t d = 0; d < corpus_->size(); ++d) {
    std::vector<double> theta = DocTopicDist(d);
    for (int w : corpus_->docs()[d].word_ids) {
      double p = 0.0;
      for (int k = 0; k < options_.num_topics; ++k) {
        p += theta[static_cast<size_t>(k)] * TopicWordProb(k, w);
      }
      ll += std::log(std::max(p, 1e-300));
      ++tokens;
    }
  }
  return tokens == 0 ? 0.0 : ll / static_cast<double>(tokens);
}

}  // namespace witnlp
