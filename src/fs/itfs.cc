#include "src/fs/itfs.h"

#include <utility>

namespace witfs {

namespace {

// The detail of a file record: "<op> <path> [<rule>]".
std::string OpDetail(ItfsOpKind op, const std::string& path, std::string_view rule) {
  std::string detail = ItfsOpKindName(op);
  detail.append(" ").append(path).append(" [").append(rule).append("]");
  return detail;
}

}  // namespace

Itfs::Itfs(std::shared_ptr<witos::Filesystem> lower,
           std::shared_ptr<const CompiledPolicy> policy, witos::Credentials invoker,
           witos::SimClock* clock, witos::AuditLog* audit, witos::Pid pid)
    : lower_(std::move(lower)),
      policy_(std::move(policy)),
      invoker_(std::move(invoker)),
      clock_(clock),
      audit_(audit),
      pid_(pid) {}

Itfs::Itfs(std::shared_ptr<witos::Filesystem> lower, const ItfsPolicy& policy,
           witos::Credentials invoker, witos::SimClock* clock, witos::AuditLog* audit,
           witos::Pid pid)
    : Itfs(std::move(lower), policy.Compile(), std::move(invoker), clock, audit, pid) {}

void Itfs::SwapPolicy(std::shared_ptr<const CompiledPolicy> policy) {
  if (metrics_ != nullptr) {
    metrics_->compile_ns->Observe(policy->compile_ns());
  }
  policy_.store(std::move(policy), std::memory_order_release);
}

void Itfs::SetShadowPolicy(std::shared_ptr<const CompiledPolicy> shadow) {
  shadow_.store(std::move(shadow), std::memory_order_release);
}

void Itfs::Chain(witos::AuditEvent event, witos::Uid uid, std::string detail) {
  if (audit_ != nullptr) {
    audit_->Append(event, pid_, uid, std::move(detail), clock_ != nullptr ? clock_->now_ns() : 0);
  }
}

void Itfs::ShadowCheck(ItfsOpKind op, const std::string& path, const PolicyDecision& primary,
                       std::string_view head) {
  std::shared_ptr<const CompiledPolicy> shadow = shadow_.load(std::memory_order_acquire);
  if (shadow == nullptr) {
    return;
  }
  PolicyDecision mirror = shadow->Evaluate(op, path, head);
  const size_t outcome = shadow_tally_.Count(!primary.deny, !mirror.deny);
  if (metrics_ != nullptr) {
    metrics_->shadow[outcome]->Increment();
  }
  if (outcome == witobs::ShadowTally::kAgree) {
    return;
  }
  // Each divergence is one chained record: benches and reports attribute it
  // after the session is gone.
  Chain(witos::AuditEvent::kSessionEvent, invoker_.uid,
        "shadow-divergence " + ItfsOpKindName(op) + " " + path +
            (mirror.deny ? " would-block [" : " would-allow [") + mirror.rule + "]");
}

VerdictCacheStats Itfs::verdict_cache_stats() const {
  VerdictCacheStats stats;
  stats.hits = verdict_hits_.load(std::memory_order_relaxed);
  stats.misses = verdict_misses_.load(std::memory_order_relaxed);
  stats.invalidations = verdict_invalidations_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(verdict_mu_);
  stats.entries = verdict_cache_.size();
  return stats;
}

bool Itfs::LookupVerdict(const std::string& path, uint64_t generation, size_t basis,
                         VerdictEntry* out) {
  std::lock_guard<std::mutex> lock(verdict_mu_);
  auto it = verdict_cache_.find(path);
  if (it == verdict_cache_.end()) {
    return false;
  }
  if (it->second.generation != generation || it->second.basis != basis) {
    // The file mutated (or the policy now reads a different head size):
    // the entry can no longer vouch for the content. Drop it so a stale
    // verdict cannot be served even transiently.
    verdict_invalidations_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) {
      metrics_->cache_invalidations->Increment();
    }
    verdict_cache_.erase(it);
    return false;
  }
  *out = it->second;
  return true;
}

void Itfs::StoreVerdict(const std::string& path, VerdictEntry entry) {
  std::lock_guard<std::mutex> lock(verdict_mu_);
  auto [it, inserted] = verdict_cache_.insert_or_assign(path, entry);
  (void)it;
  if (inserted) {
    verdict_fifo_.push_back(path);
  }
  // Bounded FIFO eviction: pop oldest insertions until back under capacity.
  // Every live entry owns at least one fifo slot, so bounding the fifo
  // bounds the map; slots for already-invalidated paths pop for free.
  while (verdict_fifo_.size() > kVerdictCacheCapacity) {
    verdict_cache_.erase(verdict_fifo_.front());
    verdict_fifo_.pop_front();
  }
}

ItfsMetrics::ItfsMetrics(witobs::MetricsRegistry* registry) {
  registry->SetHelp("watchit_itfs_ops_total", "ITFS gated operations by kind and outcome");
  registry->SetHelp("watchit_itfs_head_read_bytes_total",
                    "Bytes fetched from lower-fs file heads for signature inspection");
  registry->SetHelp("watchit_itfs_op_latency_ns",
                    "Simulated latency of a whole ITFS operation by kind");
  registry->SetHelp("watchit_itfs_verdict_cache_hits",
                    "Signature inspections served from the verdict cache (no head re-read)");
  registry->SetHelp("watchit_itfs_verdict_cache_misses",
                    "Signature inspections that had to read the file head");
  registry->SetHelp("watchit_itfs_verdict_cache_invalidations",
                    "Cached verdicts dropped because the file's generation changed");
  registry->SetHelp("watchit_policy_compile_ns",
                    "Wall nanoseconds spent compiling an ItfsPolicy into its automata");
  registry->SetHelp("watchit_itfs_shadow_total",
                    "Shadow-policy evaluations by outcome vs the installed policy");
  for (size_t op = 0; op < kNumItfsOpKinds; ++op) {
    std::string op_name = ItfsOpKindName(static_cast<ItfsOpKind>(op));
    ops[op][0] =
        registry->GetCounter("watchit_itfs_ops_total", {{"op", op_name}, {"outcome", "allow"}});
    ops[op][1] =
        registry->GetCounter("watchit_itfs_ops_total", {{"op", op_name}, {"outcome", "deny"}});
    op_latency[op] = registry->GetHistogram("watchit_itfs_op_latency_ns", {{"op", op_name}});
  }
  head_read_bytes = registry->GetCounter("watchit_itfs_head_read_bytes_total");
  cache_hits = registry->GetCounter("watchit_itfs_verdict_cache_hits");
  cache_misses = registry->GetCounter("watchit_itfs_verdict_cache_misses");
  cache_invalidations = registry->GetCounter("watchit_itfs_verdict_cache_invalidations");
  shadow[witobs::ShadowTally::kAgree] =
      registry->GetCounter("watchit_itfs_shadow_total", {{"outcome", "agree"}});
  shadow[witobs::ShadowTally::kWouldBlock] =
      registry->GetCounter("watchit_itfs_shadow_total", {{"outcome", "would_block"}});
  shadow[witobs::ShadowTally::kWouldAllow] =
      registry->GetCounter("watchit_itfs_shadow_total", {{"outcome", "would_allow"}});
  compile_ns = registry->GetHistogram("watchit_policy_compile_ns");
}

void Itfs::EnableMetrics(std::shared_ptr<const ItfsMetrics> metrics) {
  metrics_ = std::move(metrics);
}

void Itfs::CountDecision(ItfsOpKind op, bool deny) {
  if (tally_ != nullptr) {
    tally_->Count(!deny);
  }
  if (metrics_ != nullptr) {
    metrics_->ops[static_cast<size_t>(op)][deny ? 1 : 0]->Increment();
  }
}

witos::Status Itfs::Gate(ItfsOpKind op, const std::string& path,
                         const witos::Credentials& cred, bool fetch_head) {
  std::shared_ptr<const CompiledPolicy> policy = policy_.load(std::memory_order_acquire);
  size_t head_bytes = 0;
  std::string head;
  PolicyDecision decision;
  bool decided = false;
  if (fetch_head && policy->NeedsContent()) {
    const bool cacheable = policy->CacheableVerdicts();
    const size_t basis = policy->required_head_bytes();
    uint64_t generation = witos::kNoGeneration;
    if (cacheable) {
      generation = lower_->Generation(path);
    }
    VerdictEntry cached;
    if (generation != witos::kNoGeneration && LookupVerdict(path, generation, basis, &cached)) {
      // Verdict-cache hit: the file's content has provably not changed since
      // it was classified at this read size, so the class is still exact.
      // No head read, no simulated clock charge — this is the fast path.
      verdict_hits_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_ != nullptr) {
        metrics_->cache_hits->Increment();
      }
      decision = policy->EvaluateClassified(op, path, cached.cls, cached.has_content);
      decided = true;
    } else {
      verdict_misses_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_ != nullptr) {
        metrics_->cache_misses->Increment();
      }
      // Signature inspection: read the head of the file from the lower fs
      // with the invoker's privileges. This is the extra work the
      // ITFS+signature configuration pays per open in Figure 9 — the lower
      // filesystem charges the byte movement on the machine clock. The
      // compiled policy knows at compile time how many bytes classification
      // can possibly consume (64 unless a custom detector wants the full
      // scan window), so the read is sized to `basis`, not the whole window.
      if (clock_ != nullptr) {
        clock_->Advance(clock_->costs().signature_read_ns);
      }
      std::string buf;
      auto read = lower_->ReadAt(path, 0, basis, &buf, invoker_);
      if (read.ok()) {
        if (clock_ != nullptr) {
          // Content classification cost over the scanned bytes.
          clock_->Advance(buf.size() * clock_->costs().signature_scan_per_byte_tenth_ns / 10);
        }
        head = std::move(buf);
        head_bytes = head.size();
        if (head.size() > kSignatureHeadBytes) {
          head.resize(kSignatureHeadBytes);  // detection needs only the head
        }
        if (cacheable && generation != witos::kNoGeneration) {
          VerdictEntry entry;
          entry.generation = generation;
          entry.cls = DetectSignature(head);
          entry.has_content = !head.empty();
          entry.basis = basis;
          StoreVerdict(path, entry);
        }
      } else if (read.error() != witos::Err::kNoEnt && read.error() != witos::Err::kIsDir &&
                 read.error() != witos::Err::kNotDir) {
        // Fail closed. A missing file or a directory simply has no content to
        // scan, but any *environmental* failure (EIO, ENOSPC, ENOMEM) would
        // leave `head` empty and let content smuggled under an innocent name
        // sail past the signature rules — a fault-induced policy bypass. Deny
        // the access with the lower error, and account it like a deny. The
        // failed read is never cached: the next gate retries the lower fs,
        // and any cached verdict for this path was already bypassed above
        // (a mutation moved the generation, which is what brought us here).
        CountDecision(op, /*deny=*/true);
        Chain(witos::AuditEvent::kFileDenied, cred.uid, OpDetail(op, path, "head-fetch-failed"));
        return read.error();
      }
    }
  }
  if (!decided) {
    decision = policy->Evaluate(op, path, head);
  }
  ShadowCheck(op, path, decision, head);
  CountDecision(op, decision.deny);
  if (metrics_ != nullptr && head_bytes > 0) {
    metrics_->head_read_bytes->Increment(head_bytes);
  }
  if (decision.deny || !decision.rule.empty() || policy->log_all()) {
    Chain(decision.deny ? witos::AuditEvent::kFileDenied : witos::AuditEvent::kFileAccess,
          cred.uid, OpDetail(op, path, decision.rule));
  }
  if (decision.deny) {
    return witos::Err::kAcces;
  }
  return witos::Status::Ok();
}

witos::Result<witos::Stat> Itfs::Open(const std::string& path, uint32_t flags, witos::Mode mode,
                                      const witos::Credentials& cred) {
  SimTimer timer(clock_, OpLatency(ItfsOpKind::kOpen));
  bool write_intent =
      (flags & (witos::kOpenWrite | witos::kOpenTrunc | witos::kOpenAppend |
                witos::kOpenCreate)) != 0;
  WITOS_RETURN_IF_ERROR(Gate(write_intent ? ItfsOpKind::kWrite : ItfsOpKind::kOpen, path, cred,
                             /*fetch_head=*/true));
  return lower_->Open(path, flags, mode, invoker_);
}

witos::Result<size_t> Itfs::ReadAt(const std::string& path, uint64_t offset, size_t size,
                                   std::string* out, const witos::Credentials& cred) {
  SimTimer timer(clock_, OpLatency(ItfsOpKind::kRead));
  // Content rules were enforced at open; reads are forwarded but still
  // chained when a rule matches or log_all is set, with per-path dedup left
  // to the analyzer.
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kRead, path, cred, /*fetch_head=*/false));
  return lower_->ReadAt(path, offset, size, out, invoker_);
}

witos::Result<size_t> Itfs::WriteAt(const std::string& path, uint64_t offset,
                                    const std::string& data, const witos::Credentials& cred) {
  SimTimer timer(clock_, OpLatency(ItfsOpKind::kWrite));
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kWrite, path, cred, /*fetch_head=*/false));
  return lower_->WriteAt(path, offset, data, invoker_);
}

witos::Status Itfs::Truncate(const std::string& path, uint64_t size,
                             const witos::Credentials& cred) {
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kWrite, path, cred, /*fetch_head=*/true));
  return lower_->Truncate(path, size, invoker_);
}

witos::Result<witos::Stat> Itfs::GetAttr(const std::string& path,
                                         const witos::Credentials& cred) {
  // Attribute reads are not content accesses: visible but maybe not openable
  // ("can block access to specific files even if the contained administrator
  // can see that they exist").
  (void)cred;
  return lower_->GetAttr(path, invoker_);
}

witos::Result<std::vector<witos::DirEntry>> Itfs::ReadDir(const std::string& path,
                                                          const witos::Credentials& cred) {
  SimTimer timer(clock_, OpLatency(ItfsOpKind::kReaddir));
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kReaddir, path, cred, /*fetch_head=*/false));
  return lower_->ReadDir(path, invoker_);
}

witos::Status Itfs::MkDir(const std::string& path, witos::Mode mode,
                          const witos::Credentials& cred) {
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kWrite, path, cred, /*fetch_head=*/false));
  return lower_->MkDir(path, mode, invoker_);
}

witos::Status Itfs::Unlink(const std::string& path, const witos::Credentials& cred) {
  SimTimer timer(clock_, OpLatency(ItfsOpKind::kUnlink));
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kUnlink, path, cred, /*fetch_head=*/true));
  return lower_->Unlink(path, invoker_);
}

witos::Status Itfs::RmDir(const std::string& path, const witos::Credentials& cred) {
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kUnlink, path, cred, /*fetch_head=*/false));
  return lower_->RmDir(path, invoker_);
}

witos::Status Itfs::Rename(const std::string& from, const std::string& to,
                           const witos::Credentials& cred) {
  SimTimer timer(clock_, OpLatency(ItfsOpKind::kRename));
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kRename, from, cred, /*fetch_head=*/true));
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kRename, to, cred, /*fetch_head=*/false));
  return lower_->Rename(from, to, invoker_);
}

witos::Status Itfs::Chmod(const std::string& path, witos::Mode mode,
                          const witos::Credentials& cred) {
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kAttr, path, cred, /*fetch_head=*/false));
  return lower_->Chmod(path, mode, invoker_);
}

witos::Status Itfs::Chown(const std::string& path, witos::Uid uid, witos::Gid gid,
                          const witos::Credentials& cred) {
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kAttr, path, cred, /*fetch_head=*/false));
  return lower_->Chown(path, uid, gid, invoker_);
}

witos::Status Itfs::MkNod(const std::string& path, witos::FileType type, witos::DeviceId rdev,
                          witos::Mode mode, const witos::Credentials& cred) {
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kWrite, path, cred, /*fetch_head=*/false));
  return lower_->MkNod(path, type, rdev, mode, invoker_);
}

witos::Status Itfs::Link(const std::string& oldpath, const std::string& newpath,
                         const witos::Credentials& cred) {
  // A hard link is a second name for monitored content: gate it like an
  // open of the source (a link would otherwise smuggle a denied file out
  // under an innocent extension).
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kOpen, oldpath, cred, /*fetch_head=*/true));
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kWrite, newpath, cred, /*fetch_head=*/false));
  return lower_->Link(oldpath, newpath, invoker_);
}

witos::Status Itfs::SymLink(const std::string& target, const std::string& linkpath,
                            const witos::Credentials& cred) {
  WITOS_RETURN_IF_ERROR(Gate(ItfsOpKind::kWrite, linkpath, cred, /*fetch_head=*/false));
  return lower_->SymLink(target, linkpath, invoker_);
}

witos::Result<std::string> Itfs::ReadLink(const std::string& path,
                                          const witos::Credentials& cred) {
  (void)cred;
  return lower_->ReadLink(path, invoker_);
}

witos::Result<witos::FsStats> Itfs::StatFs() const { return lower_->StatFs(); }

}  // namespace witfs
