package repro.semantics

import org.scalatest.funsuite.AnyFunSuite
import repro.core.pattern.Masks

class SemanticKBSpec extends AnyFunSuite {

  test("all entity types are registered mask types") {
    assert(SemanticKB.entities.keySet.subsetOf(Masks.SemanticTypes.toSet))
  }

  test("country forms: code2, code3, name") {
    val us = SemanticKB.entities("country").find(_.canonical == "US").get
    assert(us.form("code2").contains("US"))
    assert(us.form("code3").contains("USA"))
    assert(us.form("name").contains("United States"))
  }

  test("normalize strips periods and lowercases") {
    assert(SemanticKB.normalize("U.K.") == "uk")
    assert(SemanticKB.normalize("Boston") == "boston")
  }

  test("index finds entities by any form, case-insensitively") {
    assert(SemanticKB.index("usa").exists(_._1.semType == "country"))
    assert(SemanticKB.index("uk").exists(_._2 == "code2"))
    assert(SemanticKB.index("boston").exists(_._1.semType == "city"))
    assert(SemanticKB.index("january").exists(_._1.semType == "month"))
  }

  test("fuzzy repairs single-char typos in long entities") {
    val hit = SemanticKB.fuzzy("Birminxham", "city")
    assert(hit.exists(_._1.canonical == "Birmingham"))
  }

  test("fuzzy respects the length-scaled budget") {
    assert(SemanticKB.fuzzy("ab", "city").isEmpty)   // too short for fuzz
    assert(SemanticKB.fuzzy("Bostom", "city").exists(_._1.canonical == "Boston"))
  }

  test("fuzzy returns None on cross-entity ties") {
    // a token equidistant from two different entities must not match
    val r = SemanticKB.fuzzy("XXXXXX", "city")
    assert(r.isEmpty)
  }

  test("misspelled country resolves") {
    assert(SemanticKB.fuzzy("Nevad", "region").exists(_._1.canonical == "Nevada"))
  }

  /** `fuzzy` as a scan of `damerau` over every form of the type. */
  private def fuzzyFullScan(token: String, semType: String): Option[(Entity, String, Int)] = {
    val t      = SemanticKB.normalize(token)
    val budget = if (t.length >= 6) 2 else if (t.length >= 4) 1 else 0
    if (budget == 0) return None
    val hits = SemanticKB.entities.getOrElse(semType, Vector.empty).flatMap { en =>
      en.forms.map { case (fn, s) => (en, fn, repro.core.StringsReference.damerau(t, SemanticKB.normalize(s))) }
    }.filter(_._3 <= budget)
    if (hits.isEmpty) None
    else {
      val best = hits.minBy(_._3)
      if (hits.filter(_._3 == best._3).map(_._1.canonical).distinct.size == 1) Some(best) else None
    }
  }

  test("fuzzy equals the full scan on random tokens and every type") {
    val rng   = new scala.util.Random(61018L)
    val forms = SemanticKB.entities.values.flatten.flatMap(_.forms.map(_._2)).toVector
    def edit(s: String): String = rng.nextInt(4) match {
      case _ if s.isEmpty => s
      case 0 => s.patch(rng.nextInt(s.length), "", 1)
      case 1 => s.patch(rng.nextInt(s.length + 1), ('a' + rng.nextInt(26)).toChar.toString, 0)
      case 2 => s.patch(rng.nextInt(s.length), ('A' + rng.nextInt(26)).toChar.toString, 1)
      case _ => val i = rng.nextInt(s.length); if (i + 1 < s.length) s.patch(i, s"${s(i + 1)}${s(i)}", 2) else s
    }
    var hits = 0
    for (_ <- 0 until 3000) {
      val token =
        if (rng.nextInt(4) == 0) Vector.fill(rng.nextInt(12))(('a' + rng.nextInt(26)).toChar).mkString
        else Iterator.iterate(forms(rng.nextInt(forms.size)))(edit).drop(rng.nextInt(4)).next()
      for (t <- SemanticKB.entities.keys) {
        val want = fuzzyFullScan(token, t)
        assert(SemanticKB.fuzzy(token, t) == want, s"'$token' as $t")
        if (want.nonEmpty) hits += 1
      }
    }
    assert(hits >= 500, s"hits=$hits")
  }
}

class SemanticMaskerSpec extends AnyFunSuite {

  private def mask(vs: String*): Vector[MaskedValue] = SemanticMasker.maskColumn(vs.toVector)

  test("column of country codes is masked with the country symbol") {
    val m  = Masks.charFor("country")
    val r  = mask("US-123", "IN-292", "UK-21", "FR-9")
    assert(r.forall(_.masked.head == m))
    assert(r.forall(_.masked.tail.forall(c => !Masks.isMask(c))))
  }

  test("the paper's prompt example: u.k.-392 masks and repairs to UK") {
    val r = mask("US-123", "u.k.-392", "IND-292", "UK-21")
    val uk = r(1)
    assert(uk.occs.size == 1)
    assert(uk.occs.head.original == "u.k.")
    assert(uk.occs.head.suggestion == "UK") // majority style: upper code2
  }

  test("usa renders to US under a code2-majority column (Fig 2)") {
    val r = mask("IND-674-PRO", "US-837-PRO", "usa_837", "UK-231-CAT", "IN-554-CAT")
    val usa = r(2)
    assert(usa.occs.head.suggestion == "US")
    assert(usa.masked.endsWith("_837"))
  }

  test("no election without enough support: isolated May stays unmasked") {
    val r = mask("May", "alpha", "beta", "gamma", "delta", "epsilon", "zeta")
    assert(r.head.occs.isEmpty)
  }

  test("city typo is masked and repaired via fuzzy match") {
    val r = mask("Birmingham", "London", "Wales", "Hampton", "Rockford", "Birminxham", "London")
    val bad = r(5)
    assert(bad.occs.nonEmpty)
    assert(bad.occs.head.suggestion == "Birmingham")
  }

  test("multi-word city is masked as one occurrence") {
    val r = mask("New York", "Boston", "Miami", "Chicago")
    assert(r.head.occs.map(_.original) == Vector("New York"))
    assert(r.head.masked.length == 1)
  }

  test("unmaskable values pass through") {
    val r = mask("123", "456", "789")
    assert(r.forall(m => m.occs.isEmpty && !m.masked.exists(Masks.isMask)))
  }

  test("masking is deterministic") {
    val a = mask("US-1", "UK-2", "FR-3")
    val b = mask("US-1", "UK-2", "FR-3")
    assert(a == b)
  }

  test("colors are masked in colorQty columns") {
    val r = mask("Red 1", "Green 2", "Blue 3", "Black 4")
    assert(r.forall(_.occs.head.semType == "color"))
    assert(r.forall(_.masked.matches(".\\s[0-9]")))
  }

  test("lowercase column majority renders suggestions lowercase") {
    val r = mask("red 1", "green 2", "blue 3", "bleu 4")
    assert(r(3).occs.head.suggestion == "blue")
  }

  test("election threshold is a fraction of non-empty values") {
    // 2 of 8 have entities: below the 30% threshold → no masking
    val r = mask("Boston", "London", "x1", "x2", "x3", "x4", "x5", "x6")
    assert(r.forall(_.occs.isEmpty))
  }
}
