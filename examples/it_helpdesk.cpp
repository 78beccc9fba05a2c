// The full WatchIT pipeline (Figure 3): historical tickets train the topic
// model; new free-text tickets are classified, the matching perforated
// container is deployed on the target machine, the admin resolves the
// ticket inside it, and the broker handles anything beyond the view.

#include <cstdio>

#include "src/core/case_study.h"
#include "src/core/cluster.h"
#include "src/core/framework.h"
#include "src/core/session.h"
#include "src/workload/ticket_gen.h"

int main() {
  std::printf("=== WatchIT IT-helpdesk pipeline ===\n\n");

  // 1. Train the framework on historical tickets.
  witload::TicketGenerator::Options hist_options;
  hist_options.seed = 20170101;
  witload::TicketGenerator history_gen(hist_options);
  auto history =
      history_gen.GenerateBatch(1500, witload::TicketGenerator::HistoricalDistribution());
  std::vector<std::pair<std::string, std::string>> labelled;
  for (const auto& t : history) {
    labelled.emplace_back(t.text, t.true_class);
  }
  watchit::ItFramework::Config config;
  config.lda.num_topics = 12;
  config.lda.iterations = 200;
  watchit::ItFramework framework(config);
  framework.TrainOnHistory(labelled);
  std::printf("trained LDA on %zu historical tickets (%zu-word vocabulary)\n\n",
              labelled.size(), framework.corpus().vocab().size());

  // 2. The organization.
  watchit::Cluster cluster;
  watchit::Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  watchit::ClusterManager manager(&cluster);

  // 3. A morning's worth of fresh tickets.
  witload::TicketGenerator::Options live_options;
  live_options.seed = 777;
  live_options.typo_rate = 0.05;
  live_options.with_ops = true;
  witload::TicketGenerator live_gen(live_options);
  auto incoming =
      live_gen.GenerateBatch(8, witload::TicketGenerator::EvaluationDistribution());

  size_t broker_uses = 0;
  for (const auto& generated : incoming) {
    std::string predicted = framework.Classify(generated.text);
    std::printf("%s: \"%.60s...\"\n", generated.id.c_str(), generated.text.c_str());
    std::printf("  classified %s (%s)%s\n", predicted.c_str(),
                witload::TicketClassDescription(witload::TicketClassIndex(
                                                    predicted) > 0
                                                    ? witload::TicketClassIndex(predicted)
                                                    : 11)
                    .c_str(),
                predicted == generated.true_class ? "" : "  [review corrected]");

    watchit::Ticket ticket;
    ticket.id = generated.id;
    ticket.text = generated.text;
    ticket.target_machine = "userpc";
    ticket.assigned_class = generated.true_class;  // post-review class
    ticket.admin = "alice";
    auto deployment = manager.Deploy(ticket);
    if (!deployment.ok()) {
      std::printf("  deploy failed!\n");
      continue;
    }
    watchit::AdminSession session(&machine, deployment->session, deployment->certificate,
                                  &cluster.ca());
    (void)session.Login();
    for (const auto& op : generated.ops) {
      watchit::OpReplayResult result = session.Replay(op);
      std::printf("    %-16s %-36s %s\n", witload::OpKindName(op.kind).c_str(),
                  (op.path + op.endpoint_name + op.service).c_str(),
                  result.in_view        ? "in view"
                  : result.used_broker ? (result.broker_ok ? "via broker" : "broker DENIED")
                                       : "failed");
      broker_uses += result.used_broker ? 1 : 0;
    }
    (void)manager.Expire(&*deployment);
  }

  std::printf("\nresolved %zu tickets; %zu operations needed the permission broker\n",
              incoming.size(), broker_uses);
  std::printf("evidence chain: %zu records, intact: %s\n", machine.kernel().audit().size(),
              machine.kernel().audit().Verify() ? "yes" : "no");
  return 0;
}
