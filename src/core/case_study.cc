#include "src/core/case_study.h"

#include <cstdio>
#include <map>

#include "src/core/cluster.h"
#include "src/core/session.h"
#include "src/workload/ticket_gen.h"
#include "src/workload/topology.h"

namespace watchit {

namespace {

struct PerClassAccumulator {
  size_t count = 0;
  size_t classified_correctly = 0;
  size_t satisfied = 0;
  size_t pb_proc = 0;
  size_t pb_fs = 0;
  size_t pb_net = 0;
};

double Pct(size_t num, size_t denom) {
  return denom == 0 ? 0.0 : 100.0 * static_cast<double>(num) / static_cast<double>(denom);
}

}  // namespace

CaseStudyResult RunCaseStudy(const CaseStudyConfig& config) {
  CaseStudyResult result;

  // --- 1. Historical corpus and topic model --------------------------------
  witload::TicketGenerator::Options train_options;
  train_options.seed = config.train_seed;
  witload::TicketGenerator train_gen(train_options);
  auto history = train_gen.GenerateBatch(config.train_tickets,
                                         witload::TicketGenerator::HistoricalDistribution());
  std::vector<std::pair<std::string, std::string>> labelled;
  labelled.reserve(history.size());
  for (const auto& ticket : history) {
    labelled.emplace_back(ticket.text, ticket.true_class);
  }
  ItFramework::Config fw_config;
  fw_config.lda = config.lda;
  fw_config.use_naive_bayes = config.use_naive_bayes;
  ItFramework framework(fw_config);
  framework.TrainOnHistory(labelled);

  // --- 2. The organizational machine under study ---------------------------
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  machine.tcb().AuthorizeModule("raid-ctl");  // signed by the policy system
  ClusterManager manager(&cluster);

  // --- 3. Evaluation period --------------------------------------------------
  witload::TicketGenerator::Options eval_options;
  eval_options.seed = config.eval_seed;
  eval_options.typo_rate = config.eval_typo_rate;
  eval_options.with_ops = true;
  witload::TicketGenerator eval_gen(eval_options);
  auto eval_tickets = eval_gen.GenerateBatch(config.eval_tickets,
                                             witload::TicketGenerator::EvaluationDistribution());

  std::map<std::string, PerClassAccumulator> acc;
  size_t full_fs_denied = 0;
  size_t proc_isolated = 0;
  size_t net_isolated = 0;
  size_t web_allowed = 0;

  for (const auto& generated : eval_tickets) {
    std::string predicted = framework.Classify(generated.text);
    PerClassAccumulator& a = acc[generated.true_class];
    ++a.count;
    if (predicted == generated.true_class) {
      ++a.classified_correctly;
    }

    // Review corrects the prediction before deployment (paper §5.1); the
    // container that actually gets deployed matches the true class.
    Ticket ticket;
    ticket.id = generated.id;
    ticket.text = generated.text;
    ticket.target_machine = machine.name();
    ticket.assigned_class = generated.true_class;
    ticket.admin = "it-admin-7";
    auto deployment = manager.Deploy(ticket);
    if (!deployment.ok()) {
      continue;
    }
    const witcontain::Session* session_info =
        machine.containit().FindSession(deployment->session);
    if (session_info != nullptr) {
      const witcontain::PerforatedContainerSpec& spec = session_info->spec;
      if (spec.fs.kind != witcontain::FsView::Kind::kWholeRoot) {
        ++full_fs_denied;
      }
      if (spec.IsolatesNs(witos::NsType::kPid)) {
        ++proc_isolated;
      }
      if (!spec.net.share_host) {
        ++net_isolated;
      }
      for (const auto& cidr : spec.net.sniffer_whitelist) {
        // Whitelist entries outside the 10/8 organizational network are
        // world-wide-web access (T-6's software-download sites).
        if ((cidr.base.value() >> 24) != 10) {
          ++web_allowed;
          break;
        }
      }
    }

    AdminSession session(&machine, deployment->session, deployment->certificate,
                         &cluster.ca());
    if (!session.Login().ok()) {
      continue;
    }
    bool used_proc = false;
    bool used_fs = false;
    bool used_net = false;
    for (const auto& op : generated.ops) {
      OpReplayResult replay = session.Replay(op);
      if (replay.used_broker) {
        switch (replay.category) {
          case witload::BrokerCategory::kProcessManagement:
            used_proc = true;
            break;
          case witload::BrokerCategory::kFilesystem:
            used_fs = true;
            break;
          case witload::BrokerCategory::kNetwork:
            used_net = true;
            break;
          case witload::BrokerCategory::kNone:
            break;
        }
      }
    }
    if (session_info != nullptr) {
      const witobs::OutcomeCounts fs_ops = session_info->itfs_tally->Read();
      result.fs_ops_logged += fs_ops.allowed + fs_ops.denied;
    }
    if (!used_proc && !used_fs && !used_net) {
      ++a.satisfied;
    }
    a.pb_proc += used_proc ? 1 : 0;
    a.pb_fs += used_fs ? 1 : 0;
    a.pb_net += used_net ? 1 : 0;

    (void)manager.Expire(&*deployment);
  }

  // --- 4. Aggregate ------------------------------------------------------------
  size_t total = eval_tickets.size();
  PerClassAccumulator total_acc;
  for (int i = 1; i <= witload::kNumTicketClasses; ++i) {
    std::string cls = witload::TicketClassName(i);
    const PerClassAccumulator& a = acc[cls];
    ClassRow row;
    row.cls = cls;
    row.description = witload::TicketClassDescription(i);
    row.count = a.count;
    row.share = Pct(a.count, total);
    row.precision = Pct(a.classified_correctly, a.count);
    row.satisfied = Pct(a.satisfied, a.count);
    row.pb_proc = Pct(a.pb_proc, a.count);
    row.pb_fs = Pct(a.pb_fs, a.count);
    row.pb_net = Pct(a.pb_net, a.count);
    result.rows.push_back(row);
    total_acc.count += a.count;
    total_acc.classified_correctly += a.classified_correctly;
    total_acc.satisfied += a.satisfied;
    total_acc.pb_proc += a.pb_proc;
    total_acc.pb_fs += a.pb_fs;
    total_acc.pb_net += a.pb_net;
  }
  result.total.cls = "Total";
  result.total.count = total_acc.count;
  result.total.share = 100.0;
  result.total.precision = Pct(total_acc.classified_correctly, total_acc.count);
  result.total.satisfied = Pct(total_acc.satisfied, total_acc.count);
  result.total.pb_proc = Pct(total_acc.pb_proc, total_acc.count);
  result.total.pb_fs = Pct(total_acc.pb_fs, total_acc.count);
  result.total.pb_net = Pct(total_acc.pb_net, total_acc.count);

  result.full_fs_view_denied = Pct(full_fs_denied, total);
  result.process_view_isolated = Pct(proc_isolated, total);
  result.network_view_isolated = Pct(net_isolated, total);
  result.web_access_allowed = Pct(web_allowed, total);
  // The broker accounting is decoded from one verified snapshot of the
  // machine's evidence chain; a chain that fails verification counts
  // nothing.
  auto evidence = machine.kernel().audit().VerifiedSnapshot();
  result.secure_log_intact = evidence.ok();
  if (evidence.ok()) {
    for (const witbroker::BrokerEvent& event : witbroker::BrokerEventsOf(*evidence)) {
      ++result.broker_requests;
      result.broker_denied += event.granted ? 0 : 1;
    }
  }
  return result;
}

std::string FormatTable4(const CaseStudyResult& result) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-6s %8s %10s %10s | %8s %8s %8s\n", "ID", "%Tickets",
                "Precision", "Satisfied", "PB-proc", "PB-fs", "PB-net");
  out += line;
  out += std::string(68, '-') + "\n";
  auto emit = [&](const ClassRow& row) {
    auto cell = [](double v) { return v == 0.0 ? std::string("    -") : ""; };
    std::snprintf(line, sizeof(line), "%-6s %7.0f%% %9.0f%% %9.0f%% | ", row.cls.c_str(),
                  row.share, row.precision, row.satisfied);
    out += line;
    for (double v : {row.pb_proc, row.pb_fs, row.pb_net}) {
      if (cell(v).empty()) {
        std::snprintf(line, sizeof(line), "%7.0f%% ", v);
        out += line;
      } else {
        out += "      -  ";
      }
    }
    out += "\n";
  };
  for (const auto& row : result.rows) {
    emit(row);
  }
  out += std::string(68, '-') + "\n";
  emit(result.total);
  std::snprintf(line, sizeof(line),
                "\nfull FS view denied: %.0f%%   process view isolated: %.0f%%\n"
                "network view isolated: %.0f%%   web access (whitelisted): %.0f%%\n"
                "ITFS ops logged: %llu   broker requests: %llu (denied %llu)   "
                "secure log intact: %s\n",
                result.full_fs_view_denied, result.process_view_isolated,
                result.network_view_isolated, result.web_access_allowed,
                static_cast<unsigned long long>(result.fs_ops_logged),
                static_cast<unsigned long long>(result.broker_requests),
                static_cast<unsigned long long>(result.broker_denied),
                result.secure_log_intact ? "yes" : "NO");
  out += line;
  return out;
}

}  // namespace watchit
