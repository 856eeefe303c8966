#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace ecocap::dsp::ser {

/// Line-oriented, human-inspectable checkpoint serialization.
///
/// Every record is one `key value...` line. Reals are written as C99
/// hexfloats ("%a"), so a save/load round trip reproduces the exact bit
/// pattern — the property the crash-safe checkpoints need for resumed runs
/// to stay bit-identical to uninterrupted ones. An Rng round-trips
/// as its engine's 312 state words and index (Rng::save, the text
/// libstdc++ writes for std::mt19937_64); its transforms keep no state of
/// their own.
///
/// The Reader is strict and sequential: records must be consumed in the
/// order they were written, and any key mismatch, truncation, parse failure
/// or integer its field's type cannot hold throws std::runtime_error naming
/// the key — a corrupt or version-skewed checkpoint is rejected instead of
/// silently misread.
///
/// Writer and Reader share the typed `field`/`seq`/`object` vocabulary, so
/// a checkpointed type lists its fields once, in a template both
/// directions run (`Self` is `const T` when saving):
///
///   template <class Self, class Ar>
///   static void fields(Self& self, Ar& a) {
///     a.field("hv.v_cap", self.v_cap_);
///     a.object(self.injector_);        // the nested type's own list
///   }
///
/// A check on loaded input sits next to the field it guards and is a no-op
/// when saving; `Ar::kLoading` selects a step only one direction runs.

/// Bit-exact textual encoding of a Real (hexfloat; nan/inf pass through).
std::string format_real(Real v);

/// Parse a format_real token back; throws std::runtime_error on garbage.
Real parse_real(std::string_view token);

class Writer {
 public:
  /// `header` becomes the first line; the Reader checks it verbatim
  /// (format + version tag, e.g. "ecocap-campaign-checkpoint v1").
  explicit Writer(std::string_view header);

  /// Raw record: `key value`; `value` may contain spaces but no newlines.
  void kv(std::string_view key, std::string_view value);

  void u64(std::string_view key, std::uint64_t v);
  void i64(std::string_view key, std::int64_t v);
  void real(std::string_view key, Real v);
  void str(std::string_view key, std::string_view v) { kv(key, v); }

  /// `key n v0 v1 ... v{n-1}` on a single line.
  void real_vec(std::string_view key, const std::vector<Real>& v);

  /// `key n v0 v1 ... v{n-1}` of decimal u64 on a single line (packed
  /// telemetry words, fault-plan cursors).
  void u64_vec(std::string_view key, const std::vector<std::uint64_t>& v);

  /// Full generator state (engine + distribution caches) on one line.
  void rng(std::string_view key, const Rng& r);

  // --- typed field list (mirrors Reader) ------------------------------------
  static constexpr bool kLoading = false;

  /// Integers as decimal (bool as 0/1).
  template <std::integral T>
  void field(std::string_view key, const T& v) {
    if constexpr (std::is_signed_v<T>) {
      i64(key, v);
    } else {
      u64(key, v);
    }
  }
  /// Enumerator as its integer value; the Reader checks [first, last].
  template <class E>
    requires std::is_enum_v<E>
  void field(std::string_view key, const E& v, E /*first*/, E /*last*/) {
    i64(key, static_cast<std::int64_t>(v));
  }
  void field(std::string_view key, const Real& v) { real(key, v); }
  void field(std::string_view key, const std::vector<Real>& v) {
    real_vec(key, v);
  }
  void field(std::string_view key, const std::vector<std::uint64_t>& v) {
    u64_vec(key, v);
  }
  void field(std::string_view key, const Rng& v) { rng(key, v); }

  /// Counted sequence or map: `count_key n`, then `each(element)` per
  /// element in iteration order.
  template <class Seq, class Fn>
  void seq(std::string_view count_key, const Seq& s, Fn&& each) {
    u64(count_key, s.size());
    for (const auto& e : s) each(e);
  }

  /// Nested checkpointed object: runs `T::fields`.
  template <class T>
  void object(const T& obj) { T::fields(obj, *this); }

  /// The accumulated payload (header + records).
  const std::string& payload() const { return out_; }

 private:
  std::string out_;
};

class Reader {
 public:
  /// Throws std::runtime_error when the first line differs from
  /// `expected_header` (wrong file, wrong version).
  Reader(std::string content, std::string_view expected_header);

  /// Next record's value; throws when the next line's key differs.
  std::string kv(std::string_view key);

  std::uint64_t u64(std::string_view key);
  std::int64_t i64(std::string_view key);
  Real real(std::string_view key);
  std::string str(std::string_view key) { return kv(key); }
  std::vector<Real> real_vec(std::string_view key);
  std::vector<std::uint64_t> u64_vec(std::string_view key);
  void rng(std::string_view key, Rng& r);

  // --- typed field list (mirrors Writer) ------------------------------------
  static constexpr bool kLoading = true;

  /// Integers are range-checked against T: a value T cannot represent
  /// throws instead of wrapping.
  template <std::integral T>
  void field(std::string_view key, T& v) {
    if constexpr (std::is_signed_v<T>) {
      v = narrow<T>(key, i64(key));
    } else {
      v = narrow<T>(key, u64(key));
    }
  }
  template <class E>
    requires std::is_enum_v<E>
  void field(std::string_view key, E& v, E first, E last) {
    const std::int64_t x = i64(key);
    if (x < static_cast<std::int64_t>(first) ||
        x > static_cast<std::int64_t>(last)) {
      fail(key, "enumerator out of range '" + std::to_string(x) + "'");
    }
    v = static_cast<E>(x);
  }
  void field(std::string_view key, Real& v) { v = real(key); }
  void field(std::string_view key, std::vector<Real>& v) { v = real_vec(key); }
  void field(std::string_view key, std::vector<std::uint64_t>& v) {
    v = u64_vec(key);
  }
  void field(std::string_view key, Rng& v) { rng(key, v); }

  /// Counted sequence or map: replaces `s` with `count_key` elements, each
  /// value-initialized, then filled by `each` (a map element is a
  /// std::pair<key, mapped>, inserted once `each` returns).
  template <class Seq, class Fn>
  void seq(std::string_view count_key, Seq& s, Fn&& each) {
    const std::uint64_t n = u64(count_key);
    s.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      if constexpr (requires { typename Seq::mapped_type; }) {
        std::pair<typename Seq::key_type, typename Seq::mapped_type> e{};
        each(e);
        s.insert_or_assign(std::move(e.first), std::move(e.second));
      } else {
        each(s.emplace_back());
      }
    }
  }

  template <class T>
  void object(T& obj) { T::fields(obj, *this); }

  /// Consume the next lines, which must equal `lines` byte for byte (the
  /// envelope's config-fingerprint check).
  void expect(std::string_view lines);

  /// True when every line has been consumed.
  bool exhausted() const { return pos_ >= content_.size(); }

  /// Throws when a record is left unconsumed.
  void finish() const;

 private:
  [[noreturn]] static void fail(std::string_view key, const std::string& what);
  template <class T, class V>
  static T narrow(std::string_view key, V x) {
    if (static_cast<V>(static_cast<T>(x)) != x) {
      fail(key, "integer out of range '" + std::to_string(x) + "'");
    }
    return static_cast<T>(x);
  }
  std::string next_line(std::string_view key);

  std::string content_;
  std::size_t pos_ = 0;
};

/// Crash-safe file replacement: write `content` to `path + ".tmp"`, flush,
/// fsync the temp file, atomically rename over `path`, then fsync the
/// parent directory so the rename itself is durable. An interrupted writer
/// can leave a stale .tmp behind but never a truncated `path`, and a
/// completed call survives power loss, not just process death. Returns
/// false (after cleaning up the temp file) when any step fails — including
/// an unwritable path or a failed fsync.
bool atomic_write_file(const std::string& path, std::string_view content);

/// Whole-file slurp; nullopt when the file does not exist or is unreadable.
std::optional<std::string> read_file(const std::string& path);

/// The checkpoint envelope every resumable runner shares. A file is
///
///   <header line: format + version tag>
///   <config fingerprint lines>
///   <the runner's section>
///
/// A runner supplies its header tag, the fingerprint field list of the
/// config a checkpoint must match, and its section as a body run with a
/// Writer (save) or a Reader (resume). On resume the live config's
/// fingerprint is re-encoded and compared with the file's lines byte for
/// byte, the section is read, and the payload must then be fully consumed.
/// Every failure throws std::runtime_error.
class Checkpoint {
 public:
  using Fingerprint = std::function<void(Writer&)>;

  Checkpoint(std::string header, Fingerprint fingerprint);

  template <class Body>
  std::string encode(Body&& body) const {
    Writer w = begin();
    body(w);
    return w.payload();
  }
  template <class Body>
  void decode(std::string payload, Body&& body) const {
    Reader r = open(std::move(payload));
    body(r);
    r.finish();
  }

  /// encode() to / decode() from a file through write() / read().
  template <class Body>
  void save(const std::string& path, Body&& body) const {
    write(path, encode(body));
  }
  template <class Body>
  void load(const std::string& path, Body&& body) const {
    decode(read(path), body);
  }

  /// atomic_write_file / read_file that throw naming `path` on failure.
  static void write(const std::string& path, std::string_view payload);
  static std::string read(const std::string& path);

 private:
  Writer begin() const;
  Reader open(std::string payload) const;

  std::string header_;
  Fingerprint fingerprint_;
};

}  // namespace ecocap::dsp::ser
