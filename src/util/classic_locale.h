// classic_locale.h — a scope that gives an output stream the classic
// locale and hands the caller's locale back when it ends.
//
// Emitters that stream integers with `<<` imbue the classic locale so a
// host application's global locale cannot add grouping separators to
// their bytes. The stream belongs to the caller (std::cout, a log
// stream), so the emitter must not leave it changed: this scope restores
// the previous locale on every exit, a throw included. It lives in util/,
// the one directory prlint's locale rule lets imbue a non-classic locale.
#pragma once

#include <locale>
#include <ostream>

namespace pr {

class ClassicLocaleScope {
 public:
  explicit ClassicLocaleScope(std::ostream& out)
      : out_(out), previous_(out.imbue(std::locale::classic())) {}
  ~ClassicLocaleScope() { out_.imbue(previous_); }
  ClassicLocaleScope(const ClassicLocaleScope&) = delete;
  ClassicLocaleScope& operator=(const ClassicLocaleScope&) = delete;

 private:
  std::ostream& out_;
  std::locale previous_;
};

}  // namespace pr
