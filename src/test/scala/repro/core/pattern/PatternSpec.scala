package repro.core.pattern

import org.scalatest.funsuite.AnyFunSuite

class PatternSpec extends AnyFunSuite {
  import CharClassT._

  test("literal matches itself only") {
    val p = Pattern(Lit("QUAL"))
    assert(p.matches("QUAL"))
    assert(!p.matches("QUA"))
    assert(!p.matches("QUALX"))
  }

  test("fixed-length digit class") {
    val p = Pattern(Cls(Digit, Some(3)))
    assert(p.matches("837"))
    assert(!p.matches("83"))
    assert(!p.matches("8372"))
    assert(!p.matches("a37"))
  }

  test("one-or-more digit class") {
    val p = Pattern(Cls(Digit, None))
    assert(p.matches("1"))
    assert(p.matches("123456"))
    assert(!p.matches(""))
    assert(!p.matches("12a"))
  }

  test("disjunction") {
    val p = Pattern(Disj(Vector("CAT", "PRO")))
    assert(p.matches("CAT"))
    assert(p.matches("PRO"))
    assert(!p.matches("QUAL"))
  }

  test("mask token matches exactly the mask char") {
    val p = Pattern(MaskTok("country"))
    assert(p.matches(Masks.charFor("country").toString))
    assert(!p.matches(Masks.charFor("city").toString))
    assert(!p.matches("US"))
  }

  test("group one-or-more") {
    val p = Pattern(Group(Vector(Lit("A"), Cls(Digit, Some(1)), Lit("."))))
    assert(p.matches("A2."))
    assert(p.matches("A2.A3."))
    assert(!p.matches("A2"))
    assert(!p.matches(""))
    assert(!p.matches("A2.A."))
  }

  test("concatenation: the Fig-2 player-id pattern") {
    val p = Pattern(MaskTok("country"), Lit("-"), Cls(Digit, None), Lit("-"), Disj(Vector("CAT", "PRO")))
    val m = Masks.charFor("country")
    assert(p.matches(s"$m-674-PRO"))
    assert(p.matches(s"$m-1-CAT"))
    assert(!p.matches(s"${m}_837"))
    assert(!p.matches(s"$m-837"))
  }

  test("regex special characters are quoted in literals") {
    val p = Pattern(Lit("a.b"), Cls(Digit, Some(1)))
    assert(p.matches("a.b1"))
    assert(!p.matches("axb1"))
  }

  test("pretty forms") {
    assert(Pattern(Lit("Q"), Cls(Digit, Some(1)), Lit("-"), Cls(Digit, None)).pretty == "Q[0-9]-[0-9]+")
    assert(Pattern(Disj(Vector("CAT", "PRO"))).pretty == "(CAT|PRO)")
    assert(Pattern(MaskTok("country")).pretty == "{country}")
    assert(Pattern(Group(Vector(Lit("A"), Cls(Digit, Some(1))))).pretty == "(A[0-9])+")
  }

  test("character class lattice lub") {
    assert(CharClassT.lub(Lower, Upper) == Alpha)
    assert(CharClassT.lub(Digit, Lower) == AlphaNum)
    assert(CharClassT.lub(Digit, Digit) == Digit)
    assert(CharClassT.lub(Space, Digit) == AlphaNumSpace)
    assert(CharClassT.lub(Bin01, Digit) == Digit)
  }

  test("class membership excludes mask symbols") {
    val m = Masks.charFor("country")
    assert(CharClassT.all.forall(!_.contains(m)))
    assert(CharClassT.of(m).isEmpty)
  }

  test("most specific class of a char") {
    assert(CharClassT.of('0').contains(Bin01))
    assert(CharClassT.of('7').contains(Digit))
    assert(CharClassT.of('a').contains(Lower))
    assert(CharClassT.of('Z').contains(Upper))
    assert(CharClassT.of(' ').contains(Space))
    assert(CharClassT.of('-').isEmpty)
  }

  test("masks round-trip") {
    for (t <- Masks.SemanticTypes) {
      assert(Masks.typeFor(Masks.charFor(t)).contains(t))
      assert(Masks.isMask(Masks.charFor(t)))
    }
    assert(!Masks.isMask('a'))
    assert(Masks.SemanticTypes.size == 20)
  }

  test("isMask and typeFor agree with charFor on every char") {
    val byChar = Masks.SemanticTypes.map(t => Masks.charFor(t) -> t).toMap
    for (i <- 0 until 65536) {
      val c = i.toChar
      assert(Masks.isMask(c) == byChar.contains(c), f"isMask(U+$i%04X)")
      assert(Masks.typeFor(c) == byChar.get(c), f"typeFor(U+$i%04X)")
    }
  }

  test("mask show renders readable form") {
    val m = Masks.charFor("country")
    assert(Masks.show(s"$m-123") == "{country}-123")
  }
}
