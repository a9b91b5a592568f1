// Position-independent per-library static analysis artifacts.
//
// PR-2's pipeline (CFG lift + taint summaries) ran once per process over the
// union of an app's code regions, so every analysis run recomputed every
// library from scratch. This layer splits that work into two halves:
//
//  * analyze_library — the expensive half. Lifts one library image and
//    computes its taint summaries, recording the base it was lifted at.
//    The result is immutable and keyed by a content hash of the image bytes
//    plus the JNI entry offsets, so byte-identical libraries met by
//    different apps (or the same app analyzed again) produce the same key
//    and the artifact can be shared process-wide (see SummaryCache).
//
//  * bind_library — the cheap per-process half. Adapts a LibrarySummary to
//    the base address a particular process mapped the library at. When the
//    bases coincide (the common case: the Device layout is deterministic)
//    this is zero-copy — the caller shares the published snapshot. When
//    they differ, the control-flow structure is relocated by the base delta
//    (instruction bytes are identical, so decode and every PC-relative
//    target shift exactly), and every fact that can bake an absolute
//    address into its meaning degrades conservatively:
//      - constant-address memory windows come from MOVW/MOVT pairs and
//        PC-literal pools, whose absolute values do not move with the code;
//        summaries carrying them fall back to MemKind::kOpaque;
//      - BLX-through-constant call targets likewise still point at the old
//        addresses; functions with any call site keep only their structural
//        facts (touched_regs) and take worst-case arg-flow facts.
//    Call-free pure-register functions — the transparent ones — relocate
//    losslessly.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "mem/address_space.h"
#include "static/cfg.h"
#include "static/summary.h"

namespace ndroid::static_analysis {

/// FNV-1a 64-bit over a byte span (the library content hash primitive).
[[nodiscard]] u64 fnv1a(std::span<const u8> bytes, u64 seed = 0xcbf29ce484222325ull);

/// Cache key for one library: image bytes (hashed a word at a time) + the
/// registered JNI entry points expressed as image-relative offsets (bit 0 =
/// Thumb). Changing any single image byte changes the key. Entry *names* are
/// excluded — they carry the registering app's class descriptor, and two
/// apps that map the same .so and register the same entry offsets must get
/// the same key regardless of load address or package name (the shared
/// snapshot keeps the first lifter's diagnostic labels).
[[nodiscard]] u64 library_key(std::span<const u8> image,
                              const std::vector<FunctionEntry>& entries,
                              GuestAddr base);

/// The shareable artifact: one library's lifted program and summaries,
/// valid as-is for processes that map the image at `lifted_base`.
/// Immutable after analyze_library returns; share via shared_ptr.
struct LibrarySummary {
  u64 key = 0;
  std::string name;
  GuestAddr lifted_base = 0;
  u32 image_size = 0;
  Program program;
  SummaryIndex index;
  /// Instruction-start addresses of every lifted block, per function entry.
  /// Precomputed here (not in SummaryGate) so attaching the snapshot to yet
  /// another process costs O(functions), not O(instructions) — the per-app
  /// setup cost the farm's cache amortises.
  std::map<GuestAddr, std::unordered_set<GuestAddr>> boundaries;

  [[nodiscard]] bool in_image(GuestAddr addr) const {
    return addr >= lifted_base && addr < lifted_base + image_size;
  }
};

/// The expensive half: lift and summarize one library. `region` delimits the
/// image inside `memory`; `entries` are the registered native methods whose
/// stripped addresses fall inside the region. Calls that leave the region
/// (cross-library or into system code) are treated as unresolved — the
/// summaries degrade conservatively, exactly as PR-2 treated out-of-scope
/// targets.
[[nodiscard]] LibrarySummary analyze_library(
    const mem::AddressSpace& memory, const CodeRegion& region,
    const std::vector<FunctionEntry>& entries);

/// The cheap half: adapt a published snapshot to a process that mapped the
/// image at `base`. Same base: returns `lib` unchanged (zero-copy). Different
/// base: returns a relocated copy with position-sensitive facts degraded as
/// documented above.
[[nodiscard]] std::shared_ptr<const LibrarySummary> bind_library(
    std::shared_ptr<const LibrarySummary> lib, GuestAddr base);

}  // namespace ndroid::static_analysis
