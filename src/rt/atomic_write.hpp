// atomic_write.hpp — crash-safe replacement of a whole text file.
//
// plee_fleet writes every artifact (--json, --metrics-out, --trace-out,
// --dot, --vcd, --blif-out) through this helper so an interrupt or a full
// disk never leaves a half-written file behind, and a failed write is an
// error naming the path: the text goes to a same-directory temp file,
// which is fsynced and then renamed over the target, and the directory is
// fsynced so the rename itself is durable.  A crash at any point leaves
// `path` either untouched or fully replaced.

#pragma once

#include <string>

namespace plee {

/// Atomically replaces `path` with `text` (temp file + fsync + rename +
/// directory fsync).  Throws plee::plee_error on any I/O failure; the temp
/// file is removed and `path` is left untouched.
void atomic_write_text(const std::string& path, const std::string& text);

}  // namespace plee
