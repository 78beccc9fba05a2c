// LDA and classifier tests on a synthetic corpus with known structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "src/nlp/classifier.h"
#include "src/nlp/corpus.h"
#include "src/nlp/lda.h"

namespace witnlp {
namespace {

// Three well-separated synthetic topics.
const std::vector<std::vector<std::string>>& TopicWords() {
  static const std::vector<std::vector<std::string>> kTopics = {
      {"license", "matlab", "toolbox", "expired", "flexlm"},
      {"network", "ping", "dns", "firewall", "unreachable"},
      {"disk", "quota", "space", "storage", "full"},
  };
  return kTopics;
}

Corpus MakeCorpus(size_t docs_per_topic, uint32_t seed) {
  std::mt19937 rng(seed);
  Corpus corpus;
  for (size_t topic = 0; topic < TopicWords().size(); ++topic) {
    const auto& vocab = TopicWords()[topic];
    std::uniform_int_distribution<size_t> pick(0, vocab.size() - 1);
    for (size_t d = 0; d < docs_per_topic; ++d) {
      std::vector<std::string> words;
      for (int i = 0; i < 12; ++i) {
        words.push_back(vocab[pick(rng)]);
      }
      corpus.AddDocument(words, "topic-" + std::to_string(topic));
    }
  }
  return corpus;
}

class LdaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = MakeCorpus(60, 5);
    options_.num_topics = 3;
    options_.iterations = 200;
    options_.seed = 9;
    model_ = std::make_unique<LdaModel>(&corpus_, options_);
    model_->Train();
  }
  Corpus corpus_;
  LdaOptions options_;
  std::unique_ptr<LdaModel> model_;
};

// The fold-in sampler with the topic-word quotient recomputed for every
// token, topic and iteration from the trained counts: the reference the
// tabulated phi must reproduce bit for bit (same draws, same operations in
// the same order).
std::vector<double> ReferenceInferTopics(const LdaModel& model, const LdaOptions& options,
                                         size_t vocab_size, const std::vector<int>& word_ids,
                                         int iterations = 50, uint32_t seed = 7) {
  const size_t K = static_cast<size_t>(options.num_topics);
  const double alpha = options.alpha;
  const double beta = options.beta;
  const double v_beta = static_cast<double>(vocab_size) * beta;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> topic_dist(0, options.num_topics - 1);
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
      const size_t old_k = static_cast<size_t>(z[i]);
      --local_doc_topic[old_k];
      double total = 0.0;
      for (size_t k = 0; k < K; ++k) {
        const int topic = static_cast<int>(k);
        double p = (static_cast<double>(model.TopicWordCount(topic, word_ids[i])) + beta) /
                   (static_cast<double>(model.TopicTotal(topic)) + v_beta) *
                   (static_cast<double>(local_doc_topic[k]) + alpha);
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
  double denom = static_cast<double>(word_ids.size()) + static_cast<double>(K) * alpha;
  for (size_t k = 0; k < K; ++k) {
    out[k] = (static_cast<double>(local_doc_topic[k]) + alpha) / denom;
  }
  return out;
}

TEST_F(LdaTest, TopicWordProbIsTheExactQuotient) {
  const size_t V = corpus_.vocab().size();
  const double v_beta = static_cast<double>(V) * options_.beta;
  for (int k = 0; k < model_->num_topics(); ++k) {
    for (size_t w = 0; w < V; ++w) {
      const int word = static_cast<int>(w);
      EXPECT_EQ(model_->TopicWordProb(k, word),
                (static_cast<double>(model_->TopicWordCount(k, word)) + options_.beta) /
                    (static_cast<double>(model_->TopicTotal(k)) + v_beta));
    }
  }
}

TEST_F(LdaTest, TabulatedInferenceIsBitIdenticalToTheQuotient) {
  const size_t V = corpus_.vocab().size();
  // Every training document...
  for (const Document& doc : corpus_.docs()) {
    EXPECT_EQ(model_->InferTopics(doc.word_ids),
              ReferenceInferTopics(*model_, options_, V, doc.word_ids));
  }
  // ...and a held-out batch mixing the planted topics, at other iteration
  // counts and seeds.
  Corpus held_out = MakeCorpus(10, 77);
  uint32_t seed = 1;
  for (const Document& doc : held_out.docs()) {
    std::vector<std::string> words;
    for (int id : doc.word_ids) {
      words.push_back(held_out.vocab().WordOf(id));
    }
    words.push_back(TopicWords()[seed % TopicWords().size()][0]);
    std::vector<int> ids = corpus_.ToIds(words);
    ASSERT_FALSE(ids.empty());
    EXPECT_EQ(model_->InferTopics(ids, 30, seed),
              ReferenceInferTopics(*model_, options_, V, ids, 30, seed));
    ++seed;
  }
}

TEST_F(LdaTest, TopicWordDistributionsSumToOne) {
  for (int k = 0; k < model_->num_topics(); ++k) {
    double total = 0.0;
    for (size_t w = 0; w < corpus_.vocab().size(); ++w) {
      total += model_->TopicWordProb(k, static_cast<int>(w));
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(LdaTest, DocTopicDistributionsSumToOne) {
  for (size_t d = 0; d < corpus_.size(); d += 17) {
    std::vector<double> theta = model_->DocTopicDist(d);
    double total = 0.0;
    for (double p : theta) {
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(LdaTest, RecoversPlantedTopics) {
  // Each learned topic's top words should come from exactly one planted
  // topic's vocabulary.
  for (int k = 0; k < 3; ++k) {
    auto top = model_->TopWords(k, 3);
    ASSERT_EQ(top.size(), 3u);
    int source = -1;
    for (size_t planted = 0; planted < TopicWords().size(); ++planted) {
      const auto& vocab = TopicWords()[planted];
      if (std::find(vocab.begin(), vocab.end(), top[0].word) != vocab.end()) {
        source = static_cast<int>(planted);
      }
    }
    ASSERT_NE(source, -1);
    for (const auto& tw : top) {
      const auto& vocab = TopicWords()[static_cast<size_t>(source)];
      EXPECT_NE(std::find(vocab.begin(), vocab.end(), tw.word), vocab.end())
          << "topic " << k << " mixes planted topics: " << tw.word;
    }
  }
}

TEST_F(LdaTest, InferenceAssignsHeldOutDocsCorrectly) {
  LdaClassifier classifier(model_.get(), &corpus_);
  // A fresh document about networking.
  std::vector<std::string> doc = {"ping", "dns", "firewall", "ping", "unreachable", "network"};
  EXPECT_EQ(classifier.Classify(doc), "topic-1");
  std::vector<std::string> doc2 = {"matlab", "license", "expired", "toolbox"};
  EXPECT_EQ(classifier.Classify(doc2), "topic-0");
}

TEST_F(LdaTest, LogLikelihoodBetterThanUniform) {
  double ll = model_->LogLikelihoodPerToken();
  double uniform_ll = -std::log(static_cast<double>(corpus_.vocab().size()));
  EXPECT_GT(ll, uniform_ll);
}

TEST_F(LdaTest, DeterministicGivenSeed) {
  LdaOptions options;
  options.num_topics = 3;
  options.iterations = 50;
  options.seed = 33;
  LdaModel a(&corpus_, options);
  a.Train();
  LdaModel b(&corpus_, options);
  b.Train();
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(a.TopWords(k, 5)[0].word, b.TopWords(k, 5)[0].word);
  }
}

TEST(NaiveBayesTest, ClassifiesSeparableCorpus) {
  Corpus corpus = MakeCorpus(40, 21);
  NaiveBayesClassifier nb(&corpus);
  EXPECT_EQ(nb.Classify({"quota", "disk", "full"}), "topic-2");
  EXPECT_EQ(nb.Classify({"matlab", "flexlm"}), "topic-0");
  EXPECT_EQ(nb.labels().size(), 3u);
}

TEST(EvaluateClassifierTest, PrecisionRecallAccuracy) {
  std::vector<std::pair<std::string, std::string>> results = {
      {"a", "a"}, {"a", "a"}, {"a", "b"},  // a: 2/3 recall
      {"b", "b"},                          // b predicted 2x, correct 1x
  };
  ClassificationReport report = EvaluateClassifier(results);
  EXPECT_NEAR(report.accuracy, 0.75, 1e-9);
  EXPECT_NEAR(report.recall["a"], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(report.precision["a"], 1.0, 1e-9);      // all predicted-a were a
  EXPECT_NEAR(report.precision["b"], 0.5, 1e-9);
  EXPECT_EQ(report.total, 4u);
}

TEST(CorpusTest, VocabularyAndUnknownWords) {
  Corpus corpus;
  corpus.AddDocument({"alpha", "beta", "alpha"});
  EXPECT_EQ(corpus.vocab().size(), 2u);
  EXPECT_EQ(corpus.vocab().CountOf(corpus.vocab().IdOf("alpha")), 2u);
  auto ids = corpus.ToIds({"alpha", "gamma", "beta"});
  EXPECT_EQ(ids.size(), 2u);  // gamma dropped
  EXPECT_EQ(corpus.total_tokens(), 3u);
}

}  // namespace
}  // namespace witnlp
