#include "p3p/reference_file.h"

#include <algorithm>
#include <cstdlib>

#include "common/string_util.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace p3pdb::p3p {

bool UriPatternMatch(std::string_view pattern, std::string_view path) {
  if (pattern.empty()) return false;
  // Two-pointer wildcard match; '*' spans any substring including '/'.
  size_t ti = 0, pi = 0;
  size_t star_pi = std::string_view::npos, star_ti = 0;
  while (ti < path.size()) {
    if (pi < pattern.size() && pattern[pi] == path[ti]) {
      ++ti;
      ++pi;
    } else if (pi < pattern.size() && pattern[pi] == '*') {
      star_pi = pi++;
      star_ti = ti;
    } else if (star_pi != std::string_view::npos) {
      pi = star_pi + 1;
      ti = ++star_ti;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '*') ++pi;
  return pi == pattern.size();
}

namespace {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a, one byte: the hash of a string extended by `c`.
inline uint64_t HashStep(uint64_t hash, char c) {
  return (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
}

/// Table slot of a hash: FNV's low bits depend only on the inputs' low
/// bits, so fold the high half in first.
inline size_t TableSlot(uint64_t hash, size_t mask) {
  return static_cast<size_t>(hash ^ (hash >> 32) ^ (hash >> 47)) & mask;
}

bool AnyPatternMatches(const std::vector<std::string>& patterns,
                       std::string_view path) {
  for (const std::string& p : patterns) {
    if (UriPatternMatch(p, path)) return true;
  }
  return false;
}

}  // namespace

size_t ReferenceFile::PrefixIndex::Find(std::string_view prefix,
                                        uint64_t hash) const {
  if (table.empty()) return kNone;
  const size_t mask = table.size() - 1;
  for (size_t slot = TableSlot(hash, mask);; slot = (slot + 1) & mask) {
    const size_t i = table[slot];
    if (i == kNone) return kNone;
    const Prefix& candidate = prefixes[i];
    if (candidate.hash == hash && candidate.length == prefix.size() &&
        std::string_view(bytes).substr(candidate.offset, candidate.length) ==
            prefix) {
      return i;
    }
  }
}

void ReferenceFile::PrefixIndex::Rehash(size_t slots) {
  table.assign(slots, kNone);
  const size_t mask = slots - 1;
  for (size_t i = 0; i < prefixes.size(); ++i) {
    size_t slot = TableSlot(prefixes[i].hash, mask);
    while (table[slot] != kNone) slot = (slot + 1) & mask;
    table[slot] = i;
  }
}

void ReferenceFile::PrefixIndex::Add(std::string_view pattern, size_t ref) {
  if (pattern.empty()) return;
  const std::string_view prefix = pattern.substr(0, pattern.find('*'));
  uint64_t hash = kFnvBasis;
  for (char c : prefix) hash = HashStep(hash, c);
  size_t i = Find(prefix, hash);
  if (i == kNone) {
    // Keep the load factor at most 1/2 (power-of-two sizes).
    if (2 * (prefixes.size() + 1) > table.size()) {
      Rehash(table.empty() ? 16 : 2 * table.size());
    }
    i = prefixes.size();
    prefixes.push_back({bytes.size(), prefix.size(), hash, kNone, kNone});
    bytes.append(prefix);
    const size_t mask = table.size() - 1;
    size_t slot = TableSlot(hash, mask);
    while (table[slot] != kNone) slot = (slot + 1) & mask;
    table[slot] = i;
    if (has_length.size() <= prefix.size()) {
      has_length.resize(prefix.size() + 1, 0);
    }
    has_length[prefix.size()] = 1;
  }
  Prefix& entry = prefixes[i];
  // Refs arrive in document order, so appending keeps each list sorted; a
  // ref with two patterns under one prefix is filed once.
  if (entry.tail != kNone && postings[entry.tail].ref == ref) return;
  postings.push_back({ref, kNone});
  const size_t posting = postings.size() - 1;
  if (entry.tail == kNone) {
    entry.head = posting;
  } else {
    postings[entry.tail].next = posting;
  }
  entry.tail = posting;
}

void ReferenceFile::AddRef(PolicyRef ref) {
  const size_t index = refs_.size();
  for (const std::string& pattern : ref.includes) {
    includes_.Add(pattern, index);
  }
  for (const std::string& pattern : ref.cookie_includes) {
    cookie_includes_.Add(pattern, index);
  }
  refs_.push_back(std::move(ref));
}

std::optional<size_t> ReferenceFile::FindRef(
    const PrefixIndex& index, std::string_view path,
    const std::vector<std::string> PolicyRef::* includes,
    const std::vector<std::string> PolicyRef::* excludes) const {
  if (index.has_length.empty()) return std::nullopt;
  // Every pattern that matches `path` has a literal prefix that is a prefix
  // of it, so the candidates are the postings of the path's own prefixes.
  // Each list is in document order; the first candidate that matches is
  // the answer, so a list stops at the first match or at `best`.
  size_t best = PrefixIndex::kNone;
  const size_t longest = std::min(path.size(), index.has_length.size() - 1);
  uint64_t hash = kFnvBasis;
  for (size_t n = 0;; ++n) {
    if (index.has_length[n] != 0) {
      const size_t i = index.Find(path.substr(0, n), hash);
      if (i != PrefixIndex::kNone) {
        for (size_t p = index.prefixes[i].head; p != PrefixIndex::kNone;
             p = index.postings[p].next) {
          const size_t ref = index.postings[p].ref;
          if (ref >= best) break;
          if (AnyPatternMatches(refs_[ref].*includes, path) &&
              !AnyPatternMatches(refs_[ref].*excludes, path)) {
            best = ref;
            break;
          }
        }
      }
    }
    if (n == longest) break;
    hash = HashStep(hash, path[n]);
  }
  if (best == PrefixIndex::kNone) return std::nullopt;
  return best;
}

std::optional<size_t> ReferenceFile::RefIndexForPath(
    std::string_view local_path) const {
  return FindRef(includes_, local_path, &PolicyRef::includes,
                 &PolicyRef::excludes);
}

std::optional<size_t> ReferenceFile::RefIndexForCookie(
    std::string_view cookie_path) const {
  return FindRef(cookie_includes_, cookie_path, &PolicyRef::cookie_includes,
                 &PolicyRef::cookie_excludes);
}

std::optional<std::string> ReferenceFile::PolicyForPath(
    std::string_view local_path) const {
  std::optional<size_t> i = RefIndexForPath(local_path);
  if (!i.has_value()) return std::nullopt;
  return refs_[*i].about;
}

std::optional<std::string> ReferenceFile::PolicyForCookie(
    std::string_view cookie_path) const {
  std::optional<size_t> i = RefIndexForCookie(cookie_path);
  if (!i.has_value()) return std::nullopt;
  return refs_[*i].about;
}

Result<ReferenceFile> ReferenceFileFromXml(const xml::Element& root) {
  if (root.LocalName() != "META") {
    return Status::ParseError("expected META element, got '" + root.name() +
                              "'");
  }
  ReferenceFile rf;
  const xml::Element* references = root.FindChild("POLICY-REFERENCES");
  if (references == nullptr) {
    return Status::ParseError("META has no POLICY-REFERENCES");
  }
  for (const auto& child : references->children()) {
    std::string_view name = child->LocalName();
    if (name == "EXPIRY") {
      std::string_view max_age = child->AttrOr("max-age", "");
      if (!max_age.empty()) {
        rf.expiry_max_age = std::atol(std::string(max_age).c_str());
      }
      continue;
    }
    if (name != "POLICY-REF") {
      return Status::ParseError("unexpected element '" + std::string(name) +
                                "' in POLICY-REFERENCES");
    }
    PolicyRef ref;
    std::optional<std::string_view> about = child->Attr("about");
    if (!about.has_value() || about->empty()) {
      return Status::ParseError("POLICY-REF without about attribute");
    }
    ref.about = std::string(*about);
    for (const auto& sub : child->children()) {
      std::string_view sub_name = sub->LocalName();
      std::string pattern = Trim(sub->text());
      if (sub_name == "INCLUDE") {
        ref.includes.push_back(std::move(pattern));
      } else if (sub_name == "EXCLUDE") {
        ref.excludes.push_back(std::move(pattern));
      } else if (sub_name == "COOKIE-INCLUDE") {
        // Cookie patterns may use the path attribute or text.
        std::string p = std::string(sub->AttrOr("path", pattern));
        ref.cookie_includes.push_back(std::move(p));
      } else if (sub_name == "COOKIE-EXCLUDE") {
        std::string p = std::string(sub->AttrOr("path", pattern));
        ref.cookie_excludes.push_back(std::move(p));
      } else if (sub_name == "METHOD" || sub_name == "HINT" ||
                 sub_name == "EXTENSION") {
        // Recognized but not modeled.
      } else {
        return Status::ParseError("unexpected element '" +
                                  std::string(sub_name) + "' in POLICY-REF");
      }
    }
    rf.AddRef(std::move(ref));
  }
  return rf;
}

Result<ReferenceFile> ReferenceFileFromText(std::string_view text) {
  P3PDB_ASSIGN_OR_RETURN(xml::Document doc, xml::Parse(text));
  return ReferenceFileFromXml(*doc.root);
}

std::unique_ptr<xml::Element> ReferenceFileToXml(const ReferenceFile& rf) {
  auto root = std::make_unique<xml::Element>("META");
  root->SetAttr("xmlns", "http://www.w3.org/2002/01/P3Pv1");
  xml::Element* references = root->AddChild("POLICY-REFERENCES");
  if (rf.expiry_max_age >= 0) {
    references->AddChild("EXPIRY")->SetAttr(
        "max-age", std::to_string(rf.expiry_max_age));
  }
  for (const PolicyRef& ref : rf.refs()) {
    xml::Element* r = references->AddChild("POLICY-REF");
    r->SetAttr("about", ref.about);
    for (const std::string& p : ref.includes) {
      r->AddChild("INCLUDE")->set_text(p);
    }
    for (const std::string& p : ref.excludes) {
      r->AddChild("EXCLUDE")->set_text(p);
    }
    for (const std::string& p : ref.cookie_includes) {
      r->AddChild("COOKIE-INCLUDE")->SetAttr("path", p);
    }
    for (const std::string& p : ref.cookie_excludes) {
      r->AddChild("COOKIE-EXCLUDE")->SetAttr("path", p);
    }
  }
  return root;
}

std::string ReferenceFileToText(const ReferenceFile& rf) {
  return xml::Write(*ReferenceFileToXml(rf));
}

}  // namespace p3pdb::p3p
