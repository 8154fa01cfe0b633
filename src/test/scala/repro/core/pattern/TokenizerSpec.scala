package repro.core.pattern

import org.scalatest.funsuite.AnyFunSuite
import Tokenizer._

class TokenizerSpec extends AnyFunSuite {

  test("empty string has no runs") { assert(runs("") == Vector.empty) }

  test("digit run") { assert(runs("123") == Vector(DigitRun("123"))) }

  test("lower alpha run") { assert(runs("abc") == Vector(AlphaRun("abc", AllLower))) }

  test("upper alpha run") { assert(runs("ABC") == Vector(AlphaRun("ABC", AllUpper))) }

  test("title case run") { assert(runs("Boston") == Vector(AlphaRun("Boston", Title))) }

  test("mixed case run") { assert(runs("iPhone") == Vector(AlphaRun("iPhone", Mixed))) }

  test("punctuation is one run per character") {
    assert(runs("--") == Vector(PunctRun("-"), PunctRun("-")))
  }

  test("a surrogate pair is one punctuation run") {
    assert(runs("ab\uD83D\uDE0012") == Vector(AlphaRun("ab", AllLower), PunctRun("\uD83D\uDE00"), DigitRun("12")))
    // an unpaired half stays a run of its own
    assert(runs("\uD83D-") == Vector(PunctRun("\uD83D"), PunctRun("-")))
  }

  test("space run groups consecutive spaces") {
    assert(runs("a  b") == Vector(AlphaRun("a", AllLower), SpaceRun("  "), AlphaRun("b", AllLower)))
  }

  test("US-837 tokenizes to upper, dash, digits") {
    assert(runs("US-837") == Vector(AlphaRun("US", AllUpper), PunctRun("-"), DigitRun("837")))
  }

  test("phone number") {
    assert(runs("937-587-3389").map(sigOf) == Vector("D", "P:-", "D", "P:-", "D"))
  }

  test("mask symbols are single-char runs") {
    val m = Masks.charFor("country")
    assert(runs(s"${m}-123") == Vector(MaskRun("country"), PunctRun("-"), DigitRun("123")))
  }

  test("signature collapses lengths") {
    assert(signature("US-837") == signature("IND-12"))
  }

  test("signature distinguishes case shapes") {
    assert(signature("us-837") != signature("US-837"))
  }

  test("signature distinguishes punctuation") {
    assert(signature("US-837") != signature("US_837"))
  }

  test("time signature") {
    assert(signature("04:34") == Vector("D", "P::", "D"))
  }

  test("title-case signature") { assert(sigOf(AlphaRun("Ind", Title)) == "T") }

  test("url signature") {
    assert(signature("https://www.x.com") ==
      Vector("L", "P::", "P:/", "P:/", "L", "P:.", "L", "P:.", "L"))
  }

  test("mixed alnum without delimiter splits runs") {
    assert(signature("Chrome23") == Vector("T", "D"))
  }

  test("mask signature includes the semantic type") {
    val m = Masks.charFor("city")
    assert(signature(m.toString) == Vector("M:city"))
  }

  test("tab counts as space") {
    assert(runs("a\tb")(1) == SpaceRun("\t"))
  }
}
