#include "src/net/sniffer.h"

#include <algorithm>

namespace witnet {

InspectionResult Sniffer::Inspect(const Packet& packet) const {
  InspectionResult result;
  for (const auto& rule : rules_) {
    bool matched = false;
    if (!rule.payload_signatures.empty()) {
      witfs::FileClass cls = witfs::DetectSignature(
          std::string_view(packet.payload).substr(0, witfs::kSignatureHeadBytes));
      matched = std::find(rule.payload_signatures.begin(), rule.payload_signatures.end(), cls) !=
                rule.payload_signatures.end();
    }
    if (!matched && rule.entropy_above.has_value() && packet.payload.size() >= 64) {
      matched = witfs::ShannonEntropy(packet.payload) > *rule.entropy_above;
    }
    if (!matched && rule.dst_whitelist.has_value()) {
      bool listed = std::any_of(rule.dst_whitelist->begin(), rule.dst_whitelist->end(),
                                [&](const Cidr& c) { return c.Contains(packet.dst); });
      matched = !listed;
    }
    if (!matched && !rule.payload_contains.empty()) {
      matched = packet.payload.find(rule.payload_contains) != std::string::npos;
    }
    if (!matched && rule.custom != nullptr) {
      matched = rule.custom(packet);
    }
    if (!matched) {
      continue;
    }
    result.fired_rules.push_back(rule.name);
    if (rule.action == SnifferAction::kBlock) {
      result.blocked = true;
    }
  }
  return result;
}

void Sniffer::WidenWhitelist(const Cidr& cidr) {
  for (auto& rule : rules_) {
    if (rule.dst_whitelist.has_value()) {
      rule.dst_whitelist->push_back(cidr);
    }
  }
}

SnifferRule Sniffer::BlockFileSignatures() {
  SnifferRule rule;
  rule.name = "block-file-signatures";
  rule.action = SnifferAction::kBlock;
  rule.payload_signatures = {witfs::FileClass::kJpeg,      witfs::FileClass::kPng,
                             witfs::FileClass::kGif,       witfs::FileClass::kPdf,
                             witfs::FileClass::kZipOffice, witfs::FileClass::kOleOffice};
  return rule;
}

SnifferRule Sniffer::BlockEncrypted(double entropy_threshold) {
  SnifferRule rule;
  rule.name = "block-encrypted-payload";
  rule.action = SnifferAction::kBlock;
  rule.entropy_above = entropy_threshold;
  return rule;
}

SnifferRule Sniffer::RestrictDestinations(std::vector<Cidr> whitelist, SnifferAction action) {
  SnifferRule rule;
  rule.name = "restrict-destinations";
  rule.action = action;
  rule.dst_whitelist = std::move(whitelist);
  return rule;
}

}  // namespace witnet
