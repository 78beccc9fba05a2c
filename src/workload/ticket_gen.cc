#include "src/workload/ticket_gen.h"

#include <cassert>

#include "src/workload/topology.h"

namespace witload {

namespace {

// Class vocabularies, seeded with the Table 2 topic words and extended with
// plausible co-occurring terms. Index 0 is unused (classes are 1-based).
const std::vector<std::vector<std::string>>& ClassVocabs() {
  static const std::vector<std::vector<std::string>> kVocabs = {
      {},
      // T-1: license related.
      {"license", "matlab", "error", "db2", "toolbox", "message", "expired", "activation",
       "flexlm", "renew", "simulink", "checkout", "feature", "key"},
      // T-2: user / password.
      {"password", "user", "account", "login", "locked", "reset", "credentials",
       "authentication", "username", "unlock", "change", "forgot"},
      // T-3: shared storage accessibility.
      {"file", "svn", "directory", "git", "repository", "mount", "denied", "checkout",
       "commit", "push", "clone", "folder", "nfs", "readonly"},
      // T-4: network related.
      {"port", "network", "dns", "unreachable", "ping", "routing", "firewall", "interface",
       "packet", "gateway", "ethernet", "subnet", "cable"},
      // T-5: slow / non-responsive server.
      {"slow", "stuck", "reboot", "hang", "load", "cpu", "memory", "unresponsive", "frozen",
       "swap", "lag", "overloaded", "sluggish", "thrashing"},
      // T-6: software related.
      {"install", "version", "upgrade", "eclipse", "gcc", "hadoop", "package", "plugin",
       "compile", "library", "python", "update", "build", "compiler", "application"},
      // T-7: internal VM cloud.
      {"vm", "gb", "disk", "kvm", "hypervisor", "image", "cpu", "allocate", "resize",
       "instance", "virtual", "snapshot", "cloud", "provision"},
      // T-8: permissions.
      {"access", "add", "group", "team", "permission", "sudo", "member", "grant", "owner",
       "chmod", "acl", "remove", "rights", "role"},
      // T-9: SSH / VNC / LSF.
      {"connect", "ssh", "respond", "vnc", "lsf", "session", "job", "batch", "submit",
       "x11", "terminal", "display", "queue", "bsub", "timeout"},
      // T-10: shared storage quota.
      {"space", "project", "increase", "quota", "full", "limit", "usage", "storage",
       "capacity", "cleanup", "archive", "exceeded"},
      // T-11: other (rare requests).
      {"partition", "driver", "resize", "kernel", "module", "firmware", "device", "usb",
       "printer", "scanner", "bios", "special"},
  };
  return kVocabs;
}

const std::vector<std::string>& BackgroundVocab() {
  static const std::vector<std::string> kBackground = {
      "linux",  "machine", "computer", "desktop", "laptop", "run",    "fail",
      "system", "open",    "close",    "start",   "stop",   "check",  "look",
      "morning", "today",  "yesterday", "screen", "window", "click",  "command",
      "error",  "message", "log",       "attach", "colleague", "suddenly", "again",
  };
  return kBackground;
}

struct BeyondViewPlan {
  double proc_prob = 0.0;
  double net_prob = 0.0;
  RequiredOp proc_op;
  RequiredOp net_op;
};

RequiredOp ConnectOp(const OrgEndpoint& ep, bool beyond = false) {
  RequiredOp op;
  op.kind = OpKind::kConnect;
  op.endpoint_name = ep.name;
  op.port = ep.port;
  op.beyond_view = beyond;
  op.broker_category = beyond ? BrokerCategory::kNetwork : BrokerCategory::kNone;
  return op;
}

RequiredOp FileOp(OpKind kind, std::string path) {
  RequiredOp op;
  op.kind = kind;
  op.path = std::move(path);
  return op;
}

RequiredOp ProcOp(OpKind kind, std::string service = "") {
  RequiredOp op;
  op.kind = kind;
  op.service = std::move(service);
  return op;
}

// Per-class probability of needing the permission broker, and which op gets
// planted — calibrated to Table 4's last three columns.
BeyondViewPlan PlanFor(int class_index) {
  BeyondViewPlan plan;
  plan.proc_op = ProcOp(OpKind::kListProcesses);
  plan.proc_op.beyond_view = true;
  plan.proc_op.broker_category = BrokerCategory::kProcessManagement;
  switch (class_index) {
    case 1:  // e.g. a missing toolbox must be installed from the repo.
      plan.proc_prob = 0.03;
      plan.net_prob = 0.03;
      plan.net_op = ConnectOp(kSoftwareRepo, true);
      break;
    case 2:
      plan.net_prob = 0.14;
      plan.net_op = ConnectOp(kDirectoryServer, true);
      break;
    case 3:
      plan.net_prob = 0.07;
      plan.net_op = ConnectOp(kTargetMachine, true);
      break;
    case 5:
      plan.net_prob = 0.11;
      plan.net_op = ConnectOp(kSoftwareRepo, true);
      break;
    case 6:
      plan.net_prob = 0.09;
      plan.net_op = ConnectOp(kDirectoryServer, true);
      break;
    case 7:
      plan.proc_prob = 0.03;
      break;
    case 8:
      plan.proc_prob = 0.17;
      plan.net_prob = 0.17;
      plan.net_op = ConnectOp(kSharedStorage, true);
      break;
    default:
      break;
  }
  return plan;
}

}  // namespace

std::string TicketClassName(int index) { return "T-" + std::to_string(index); }

int TicketClassIndex(const std::string& name) {
  if (name.size() < 3 || name.compare(0, 2, "T-") != 0) {
    return -1;
  }
  int index = std::atoi(name.c_str() + 2);
  return index >= 1 && index <= kNumTicketClasses ? index : -1;
}

std::string TicketClassDescription(int index) {
  static const char* kDescriptions[] = {
      "",
      "License related",
      "User / password",
      "Shared storage accessibility",
      "Network related",
      "Slow / non-responsive server",
      "Software related",
      "Internal VM cloud",
      "Permissions",
      "SSH/VNC/LSF",
      "Shared storage quota",
      "Other",
  };
  assert(index >= 1 && index <= kNumTicketClasses);
  return kDescriptions[index];
}

TicketGenerator::TicketGenerator(Options options) : options_(options), rng_(options.seed) {}

std::vector<double> TicketGenerator::HistoricalDistribution() {
  // Figure 7's T-1..T-10 shares scaled by 0.98, plus the ~2% of rare
  // "other" requests that did not cluster (partition resizing, driver
  // updates) so the classifier has seen the T-11 vocabulary.
  return {0.049, 0.1078, 0.0686, 0.0686, 0.0392, 0.147, 0.0784, 0.0882, 0.2254, 0.1078, 0.02};
}

std::vector<double> TicketGenerator::EvaluationDistribution() {
  // Table 4, "% of Total Tickets": T-1..T-11.
  return {0.09, 0.07, 0.08, 0.02, 0.05, 0.30, 0.10, 0.03, 0.21, 0.03, 0.02};
}

const std::vector<std::string>& TicketGenerator::ClassVocabulary(int index) {
  assert(index >= 1 && index <= kNumTicketClasses);
  return ClassVocabs()[static_cast<size_t>(index)];
}

std::string TicketGenerator::MaybeTypo(std::string word) {
  if (options_.typo_rate <= 0.0 || word.size() < 4) {
    return word;
  }
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  if (coin(rng_) >= options_.typo_rate) {
    return word;
  }
  std::uniform_int_distribution<size_t> pos_dist(1, word.size() - 2);
  size_t pos = pos_dist(rng_);
  if (coin(rng_) < 0.5) {
    std::swap(word[pos], word[pos + 1]);  // transposition
  } else {
    word.erase(pos, 1);  // deletion
  }
  return word;
}

std::string TicketGenerator::RandomEntity() {
  std::uniform_int_distribution<int> kind(0, 3);
  std::uniform_int_distribution<int> num(1, 250);
  switch (kind(rng_)) {
    case 0:
      return "10." + std::to_string(num(rng_)) + "." + std::to_string(num(rng_)) + "." +
             std::to_string(num(rng_));
    case 1:
      return "srv-" + std::to_string(num(rng_));
    case 2:
      return "vm-" + std::to_string(num(rng_));
    default:
      return "/gpfs/projects/proj" + std::to_string(num(rng_));
  }
}

std::string TicketGenerator::MakeText(int class_index) {
  const auto& vocab = ClassVocabulary(class_index);
  const auto& background = BackgroundVocab();
  std::uniform_int_distribution<size_t> len_dist(9, 18);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<size_t> vocab_dist(0, vocab.size() - 1);
  std::uniform_int_distribution<size_t> bg_dist(0, background.size() - 1);

  size_t len = len_dist(rng_);
  std::string text = "Hello, please help: ";
  for (size_t i = 0; i < len; ++i) {
    double roll = coin(rng_);
    std::string word;
    if (roll < 0.06) {
      word = RandomEntity();
    } else if (roll < 0.06 + options_.background_rate) {
      word = background[bg_dist(rng_)];
    } else {
      word = vocab[vocab_dist(rng_)];
    }
    text += MaybeTypo(std::move(word));
    text += ' ';
  }
  text += "thanks!";
  return text;
}

std::vector<RequiredOp> TicketGenerator::MakeOps(int class_index) {
  std::vector<RequiredOp> ops;
  switch (class_index) {
    case 1:
      ops.push_back(FileOp(OpKind::kWriteFile, "/home/user/.matlab/license.lic"));
      ops.push_back(ConnectOp(kLicenseServer));
      break;
    case 2:
      ops.push_back(FileOp(OpKind::kReadFile, "/etc/passwd"));
      ops.push_back(FileOp(OpKind::kWriteFile, "/etc/shadow"));
      break;
    case 3:
      ops.push_back(FileOp(OpKind::kWriteFile, "/etc/fstab"));
      ops.push_back(FileOp(OpKind::kWriteFile, "/home/user/.subversion/config"));
      ops.push_back(ConnectOp(kSharedStorage));
      break;
    case 4:
      ops.push_back(ProcOp(OpKind::kListProcesses));
      ops.push_back(FileOp(OpKind::kWriteFile, "/etc/resolv.conf"));
      ops.push_back(ConnectOp(kDirectoryServer));  // any endpoint: NET shared
      ops.push_back(ProcOp(OpKind::kRestartService, "networking"));
      break;
    case 5:
      ops.push_back(ProcOp(OpKind::kListProcesses));
      ops.push_back(ProcOp(OpKind::kKillProcess, "runaway"));
      ops.push_back(FileOp(OpKind::kReadFile, "/var/log/syslog"));
      ops.push_back(ProcOp(OpKind::kRestartService, "cron"));
      break;
    case 6: {
      RequiredOp install = ProcOp(OpKind::kInstallPackage, "eclipse");
      install.endpoint_name = kSoftwareRepo.name;
      install.port = kSoftwareRepo.port;
      ops.push_back(install);
      ops.push_back(FileOp(OpKind::kWriteFile, "/usr/progs/eclipse.ini"));
      ops.push_back(ConnectOp(kEclipseMirror));
      ops.push_back(ProcOp(OpKind::kRestartService, "app-daemon"));
      break;
    }
    case 7:
      ops.push_back(FileOp(OpKind::kWriteFile, "/etc/vm-ownership.conf"));
      break;
    case 8:
      ops.push_back(FileOp(OpKind::kWriteFile, "/home/user/project/.acl"));
      ops.push_back(FileOp(OpKind::kReadFile, "/var/lib/groups.db"));
      break;
    case 9:
      ops.push_back(FileOp(OpKind::kWriteFile, "/etc/ssh/sshd_config"));
      ops.push_back(FileOp(OpKind::kWriteFile, "/home/user/.ssh/config"));
      ops.push_back(ConnectOp(kTargetMachine));
      ops.push_back(ConnectOp(kBatchServer));
      ops.push_back(ProcOp(OpKind::kRestartService, "sshd"));
      break;
    case 10:
      ops.push_back(FileOp(OpKind::kWriteFile, "/home/user/quota-request"));
      ops.push_back(ConnectOp(kSharedStorage));
      break;
    case 11: {
      // Rare requests: partition resizing, driver updates — TCB changes
      // that always escalate.
      RequiredOp driver = ProcOp(OpKind::kDriverUpdate, "raid-ctl");
      driver.beyond_view = true;
      driver.broker_category = BrokerCategory::kFilesystem;
      ops.push_back(driver);
      break;
    }
    default:
      break;
  }

  BeyondViewPlan plan = PlanFor(class_index);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  if (plan.proc_prob > 0.0 && coin(rng_) < plan.proc_prob) {
    ops.push_back(plan.proc_op);
  }
  if (plan.net_prob > 0.0 && coin(rng_) < plan.net_prob) {
    ops.push_back(plan.net_op);
  }
  return ops;
}

GeneratedTicket TicketGenerator::Generate(int class_index) {
  GeneratedTicket ticket;
  ticket.id = "TKT-" + std::to_string(next_ticket_++);
  ticket.true_class = TicketClassName(class_index);
  ticket.text = MakeText(class_index);
  if (options_.with_ops) {
    ticket.ops = MakeOps(class_index);
  }
  return ticket;
}

std::vector<GeneratedTicket> TicketGenerator::GenerateBatch(
    size_t n, const std::vector<double>& distribution) {
  std::discrete_distribution<int> class_dist(distribution.begin(), distribution.end());
  std::vector<GeneratedTicket> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Generate(class_dist(rng_) + 1));
  }
  return out;
}

}  // namespace witload
