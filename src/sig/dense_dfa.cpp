#include "sig/dense_dfa.h"

#include <algorithm>
#include <stdexcept>

namespace iotsec::sig {

DenseDfa DenseDfa::Compile(const AhoCorasick& ac) {
  DenseDfa dfa;
  dfa.pattern_count_ = ac.PatternCount();
  if (!ac.Built() || ac.PatternCount() == 0) return dfa;

  const bool fold = ac.FoldsInput();
  if (fold) {
    const int n_patterns = static_cast<int>(ac.PatternCount());
    dfa.verify_.resize(static_cast<std::size_t>(n_patterns), 0);
    dfa.texts_.resize(static_cast<std::size_t>(n_patterns));
    for (int pid = 0; pid < n_patterns; ++pid) {
      if (ac.PatternNeedsVerify(pid)) {
        dfa.verify_[static_cast<std::size_t>(pid)] = 1;
        dfa.texts_[static_cast<std::size_t>(pid)] = ac.PatternText(pid);
      }
    }
  }

  const std::size_t n = ac.NodeCount();

  // Alphabet compression: a byte appearing in no (folded) pattern has no
  // trie edge anywhere, so the goto-closure sends it to the root from
  // every state — all such bytes share one sink class. Every distinct
  // pattern byte gets its own class.
  std::array<bool, 256> present{};
  for (int pid = 0; pid < static_cast<int>(ac.PatternCount()); ++pid) {
    for (const char ch : ac.PatternText(pid)) {
      auto byte = static_cast<std::uint8_t>(ch);
      if (fold) byte = kCaseFold[byte];
      present[byte] = true;
    }
  }
  std::array<std::uint8_t, 256> class_of{};
  // class -> a byte the trie sees for that class: the pattern byte itself,
  // or for the sink a byte in no folded pattern. Rows are filled from the
  // trie's transitions on these bytes as they are, never folded again:
  // folding the sink's byte (say 'A' once 0x00-0x40 are all in use) could
  // turn it into a pattern byte and give the sink a non-root successor.
  std::vector<std::uint8_t> rep;
  int sink_byte = -1;
  for (int b = 0; b < 256; ++b) {
    if (!present[b]) {
      sink_byte = b;
      break;
    }
  }
  if (sink_byte >= 0) rep.push_back(static_cast<std::uint8_t>(sink_byte));
  for (int b = 0; b < 256; ++b) {
    if (present[b]) {
      class_of[b] = static_cast<std::uint8_t>(rep.size());
      rep.push_back(static_cast<std::uint8_t>(b));
    } else if (sink_byte >= 0) {
      class_of[b] = 0;
    }
  }
  dfa.nclasses_ = static_cast<std::uint32_t>(rep.size());
  // Baking the fold into the classmap means the scan takes raw bytes with
  // no per-byte fold in the hot loop.
  for (int b = 0; b < 256; ++b) {
    const auto folded = fold ? kCaseFold[static_cast<std::uint8_t>(b)]
                             : static_cast<std::uint8_t>(b);
    dfa.classmap_[static_cast<std::size_t>(b)] = class_of[folded];
  }
  // Rows are padded to a power of two so successor entries can be
  // pre-multiplied row offsets (id << shift_) — the scan step becomes
  // add + load with no multiply on the dependency chain. The offsets are
  // uint32: an automaton whose last row offset does not fit is refused
  // rather than wrapped.
  dfa.shift_ = ShiftFor(dfa.nclasses_);
  if (n > MaxStates(dfa.nclasses_)) {
    throw std::length_error("DenseDfa: " + std::to_string(n) +
                            " states overflow uint32 row offsets");
  }
  dfa.state_count_ = n;

  // Permute states with outputs to the top of the id range so the scan
  // loop's "any match here?" test is one compare against out_boundary_row_.
  // Within each half, order by trie depth: scans spend most bytes at
  // shallow states (the deeper the state, the longer the suffix that
  // must match a pattern prefix), so depth order packs the hot rows into
  // a contiguous L1-resident prefix of the table.
  std::vector<std::size_t> old_of_new;
  old_of_new.reserve(n);
  for (int pass = 0; pass < 2; ++pass) {
    const bool want_outputs = pass == 1;
    const std::size_t half_begin = old_of_new.size();
    for (std::size_t s = 0; s < n; ++s) {
      if (ac.NodeOutputs(s).empty() != want_outputs) old_of_new.push_back(s);
    }
    std::stable_sort(old_of_new.begin() +
                         static_cast<std::ptrdiff_t>(half_begin),
                     old_of_new.end(), [&ac](std::size_t a, std::size_t b) {
                       return ac.NodeDepth(a) < ac.NodeDepth(b);
                     });
    if (pass == 0) {
      dfa.out_boundary_row_ = static_cast<std::uint32_t>(old_of_new.size())
                              << dfa.shift_;
    }
  }
  std::vector<std::uint32_t> new_id(n);
  for (std::size_t ns = 0; ns < n; ++ns) {
    new_id[old_of_new[ns]] = static_cast<std::uint32_t>(ns);
  }

  dfa.table_.assign(n << dfa.shift_, 0);
  dfa.out_start_.assign(n + 1, 0);
  for (std::size_t ns = 0; ns < n; ++ns) {
    const std::size_t s = old_of_new[ns];
    std::uint32_t* row = &dfa.table_[ns << dfa.shift_];
    for (std::uint32_t cls = 0; cls < dfa.nclasses_; ++cls) {
      const auto next =
          static_cast<std::size_t>(ac.NodeTransition(s, rep[cls]));
      row[cls] = new_id[next] << dfa.shift_;
    }
    for (const int pid : ac.NodeOutputs(s)) {
      dfa.out_ids_.push_back(pid);
    }
    dfa.out_start_[ns + 1] = static_cast<std::uint32_t>(dfa.out_ids_.size());
  }
  return dfa;
}

std::vector<AhoCorasick::Match> DenseDfa::FindAll(
    std::span<const std::uint8_t> data) const {
  std::vector<AhoCorasick::Match> out;
  ScanOutputs(data, [&](std::int32_t pid, std::size_t end) {
    if (VerifyAt(data, end, pid)) out.push_back(AhoCorasick::Match{pid, end});
  });
  return out;
}

std::size_t DenseDfa::MemoryBytes() const {
  std::size_t text_bytes = verify_.size() * sizeof(std::uint8_t);
  for (const std::string& t : texts_) text_bytes += t.size();
  return text_bytes + sizeof(classmap_) +
         table_.size() * sizeof(std::uint32_t) +
         out_start_.size() * sizeof(std::uint32_t) +
         out_ids_.size() * sizeof(std::int32_t);
}

}  // namespace iotsec::sig
