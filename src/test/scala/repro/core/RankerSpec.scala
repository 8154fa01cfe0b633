package repro.core

import org.scalatest.funsuite.AnyFunSuite

class RankerSpec extends AnyFunSuite {
  import Ranker._

  test("lower edit cost wins, other things equal") {
    val cands = Vector(
      Candidate("ab-1", "p1", 0.5, 1, 1),
      Candidate("zz-9", "p1", 0.5, 1, 4),
    )
    val r = rank("ab_1", cands, Vector("ab-1", "zz-9"))
    assert(r.head.repaired == "ab-1")
  }

  test("the Fig-2 ranking: masked-space cost beats concrete distance") {
    val cands = Vector(
      Candidate("QUAL-37", "q", 0.25, 4, 8),
      Candidate("US-837-PRO", "main", 0.625, 3, 5),
    )
    val r = rank("usa_837", cands, Vector("US-837-PRO", "QUAL-21"))
    assert(r.head.repaired == "US-837-PRO")
  }

  test("edit-distance-only mode ignores coverage") {
    val cands = Vector(
      Candidate("abc", "p1", 0.9, 0, 2),
      Candidate("ax", "p2", 0.1, 0, 0),
    )
    val r = rank("ax", cands, Vector.empty, editDistanceOnly = true)
    assert(r.head.repaired == "ax")
  }

  test("duplicates are merged keeping the best score") {
    val cands = Vector(
      Candidate("abc", "p1", 0.2, 1, 1),
      Candidate("abc", "p2", 0.8, 1, 1),
    )
    val r = rank("abx", cands, Vector("abc"))
    assert(r.size == 1)
    assert(r.head.patternPretty == "p2")
  }

  test("scores are deterministic and sorted descending") {
    val cands = Vector(
      Candidate("a1", "p", 0.5, 1, 1), Candidate("b2", "p", 0.5, 1, 2), Candidate("c3", "p", 0.5, 1, 3))
    val r = rank("a9", cands, Vector("a1"))
    assert(r.map(_.score) == r.map(_.score).sorted.reverse)
    assert(r.head.repaired == "a1")
  }

  test("levenshtein basics") {
    assert(Strings.lev("", "") == 0)
    assert(Strings.lev("abc", "abc") == 0)
    assert(Strings.lev("kitten", "sitting") == 3)
    assert(Strings.lev("abc", "") == 3)
  }

  test("damerau counts transpositions as one") {
    assert(StringsReference.damerau("bleu", "blue") == 1)
    assert(Strings.lev("bleu", "blue") == 2)
    assert(StringsReference.damerau("abc", "abc") == 0)
  }
}
