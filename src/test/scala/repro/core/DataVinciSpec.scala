package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.repair.Predicates

/** End-to-end pipeline tests, anchored on the paper's worked examples. */
class DataVinciSpec extends AnyFunSuite {

  test("Fig 2 flagship: usa_837 → US-837-PRO via masking, edits, constraints") {
    val table = Table.of(
      "Category" -> Seq("Junior", "Professional", "Junior", "Professional", "Junior",
                        "Qualifier", "Qualifier", "Professional"),
      "PlayerID" -> Seq("IND-674-CAT", "US-837-PRO", "UK-231-CAT", "usa_837", "IN-554-CAT",
                        "QUAL-21", "QUAL-28", "FR-912-PRO"),
    )
    val res = DataVinci.cleanColumn(table, 1)
    assert(res.errors == Set(3), s"sig=${res.significant.map(_._1.pretty)}")
    assert(res.suggestionFor(3).contains("US-837-PRO"))
  }

  test("Fig 2: QUAL values are covered by their own significant pattern") {
    val table = Table.of(
      "PlayerID" -> Seq("IND-674-CAT", "US-837-PRO", "UK-231-CAT", "IN-554-CAT",
                        "QUAL-21", "QUAL-28"),
    )
    val res = DataVinci.cleanColumn(table, 0)
    assert(res.errors.isEmpty)
  }

  test("syntactic-only: missing period in serial column is repaired") {
    val table = Table.of("s" -> Seq("S.1.2", "S.2.3", "S1.4", "S.1.3", "S.2.1"))
    val res = DataVinci.cleanColumn(table, 0)
    assert(res.errors == Set(2))
    assert(res.suggestionFor(2).contains("S.1.4"))
  }

  test("delimiter change: 03.45 in a time column is repaired to 03:45") {
    val table = Table.of("t" -> Seq("04:34", "05:23", "04:38", "03.45", "03:34", "04:55"))
    val res = DataVinci.cleanColumn(table, 0)
    assert(res.errors == Set(3))
    assert(res.suggestionFor(3).contains("03:45"))
  }

  test("semantic typo: Birminxham in a city column is repaired") {
    val table = Table.of("city" -> Seq("Birmingham", "London", "Wales", "Hampton",
                                       "Rockford", "Birminxham", "London", "Boston"))
    val res = DataVinci.cleanColumn(table, 0)
    assert(res.suggestionFor(5).contains("Birmingham"))
  }

  test("an emoji delimiter: the odd one out is flagged and repaired with the pair intact") {
    val e     = "\uD83D\uDE00"
    val table = Table.of("c" -> Seq(s"ab${e}12", s"cd${e}34", s"ef${e}56", s"gh${e}78", s"ij${e}90", s"kl${e}11", "mn-22"))
    val res   = DataVinci.cleanColumn(table, 0)
    assert(res.errors == Set(6), s"sig=${res.significant.map(_._1.pretty)}")
    assert(res.suggestionFor(6).contains(s"mn${e}22"))
  }

  test("Fig 6 trap 1: error covered by a significant pattern is missed") {
    val table = Table.of("c" -> Seq("ARG", "CHN0", "USA", "GER0", "FRA"))
    val res = DataVinci.cleanColumn(table, 0)
    assert(res.errors.isEmpty) // faithful false negative
  }

  test("Fig 6 trap 2: irregular column learns no significant pattern") {
    val table = Table.of("c" -> Seq("Total: 47", "n/a", "see note 3", "12 units (est.)",
                                    "pending review", "zero"))
    val res = DataVinci.cleanColumn(table, 0)
    assert(res.significant.isEmpty)
    assert(res.errors.isEmpty)
  }

  test("no errors in a clean regular column") {
    val table = Table.of("p" -> Seq("937-587-3389", "419-996-7110", "440-993-8351",
                                    "555-123-4567", "202-555-0101"))
    val res = DataVinci.cleanColumn(table, 0)
    assert(res.errors.isEmpty)
  }

  test("phone with digit deleted is detected and repaired into the language") {
    val table = Table.of("p" -> Seq("937-587-3389", "419-996-7110", "440-993-8351",
                                    "555-123-4567", "4405764039", "202-555-0101"))
    val res = DataVinci.cleanColumn(table, 0)
    assert(res.errors == Set(4))
    val s = res.suggestionFor(4).get
    assert(s.matches("[0-9]{3}-[0-9]{3}-[0-9]{4}"))
  }

  test("suggestion differs from the original") {
    val table = Table.of("t" -> Seq("04:34", "05:23", "04:38", "03.45", "03:34"))
    val res = DataVinci.cleanColumn(table, 0)
    for ((r, cr) <- res.repairs; s <- cr.suggestion) assert(s != cr.original)
  }

  test("no-semantic ablation misses the semantic repair but not syntax") {
    val table = Table.of("id" -> Seq("US-123", "IN-292", "UK-021", "FR-456", "usa_837", "DE-777"))
    val full = DataVinci.cleanColumn(table, 0)
    val nosem = DataVinci.cleanColumn(table, 0, DataVinci.Config(semantic = false))
    // with semantics: usa_837 flagged (syntax); mask reconcretizes usa → US
    assert(full.errors == Set(4))
    assert(full.suggestionFor(4).contains("US-837"))
    // without: both detect, but the repair cannot restore the country code
    assert(nosem.errors.contains(4))
    assert(!nosem.suggestionFor(4).contains("US-837"))
  }

  test("limited semantic concretization reuses the original substring") {
    val table = Table.of("id" -> Seq("US-123", "IN-292", "UK-021", "FR-456", "usa_837", "DE-777"))
    val limited = DataVinci.cleanColumn(table, 0, DataVinci.Config(limitedSemanticConcretization = true))
    // repaired syntax but the semantic substring stays "usa"
    assert(limited.errors.contains(4))
    assert(limited.suggestionFor(4).contains("usa-837"))
  }

  test("enumeration mode still produces a pattern-valid top candidate") {
    val table = Table.of("t" -> Seq("04:34", "05:23", "04:38", "03.45", "03:34"))
    val res = DataVinci.cleanColumn(table, 0, DataVinci.Config(learnedConcretization = false))
    assert(res.errors == Set(3))
    val s = res.suggestionFor(3).get
    assert(s.matches("[0-9]{2}:[0-9]{2}"))
  }

  test("enumeration mode keeps a carried-over mask's own suggestion") {
    val table = Table.of("id" -> Seq("US-123", "IN-292", "UK-021", "FR-456", "usa_837", "DE-777"))
    val res = DataVinci.cleanColumn(table, 0, DataVinci.Config(learnedConcretization = false))
    val cands = res.repairs(4).candidates.map(_.repaired)
    assert(cands.nonEmpty)
    assert(cands.forall(_.startsWith("US")), cands)
  }

  test("edit-distance-only ranking is an available ablation") {
    val table = Table.of("t" -> Seq("04:34", "05:23", "04:38", "03.45", "03:34"))
    val res = DataVinci.cleanColumn(table, 0, DataVinci.Config(editDistanceRanking = true))
    assert(res.suggestionFor(3).isDefined)
  }

  test("delta controls sensitivity") {
    // minority pattern at 2/7 ≈ 0.29: significant at δ=0.2, not at δ=0.4
    val vs = Seq("a-1", "b-2", "c-3", "d-4", "e-5", "x_9", "y_8")
    val loose = DataVinci.cleanColumn(Table.of("c" -> vs), 0, DataVinci.Config(delta = 0.2))
    val tight = DataVinci.cleanColumn(Table.of("c" -> vs), 0, DataVinci.Config(delta = 0.4))
    assert(loose.errors.isEmpty)
    assert(tight.errors == Set(5, 6))
  }

  test("cleanTable shares features and cleans every column") {
    val table = Table.of(
      "a" -> Seq("1", "2", "3", "4", "x"),
      "b" -> Seq("u-1", "u-2", "u-3", "u-4", "u-5"),
    )
    val res = DataVinci.cleanTable(table)
    assert(res.keySet == Set(0, 1))
    assert(res(0).errors == Set(4))
    assert(res(1).errors.isEmpty)
  }

  /** `cleanModel` on all rows of `col`, with a feature thunk that counts its
    * evaluations.
    */
  private def featureReads(table: Table, col: Int): (DataVinci.ColumnResult, Int) = {
    var reads = 0
    val m = new PatternModel(table, col, 0 until table.numRows, DataVinci.Config(),
      { reads += 1; Predicates.featuresOf(table) })
    (DataVinci.cleanModel(m), reads)
  }

  test("a repair by a literal insertion never builds the predicate features") {
    val (res, reads) = featureReads(Table.of("s" -> Seq("S.1.2", "S.2.3", "S1.4", "S.1.3", "S.2.1")), 0)
    assert(res.suggestionFor(2).contains("S.1.4"))
    assert(reads == 0)
  }

  test("a repair whose slot tree searches a split builds the predicate features once") {
    val table = Table.of(
      "Category" -> Seq("Junior", "Professional", "Junior", "Professional", "Junior",
                        "Qualifier", "Qualifier", "Professional"),
      "PlayerID" -> Seq("IND-674-CAT", "US-837-PRO", "UK-231-CAT", "usa_837", "IN-554-CAT",
                        "QUAL-21", "QUAL-28", "FR-912-PRO"),
    )
    val (res, reads) = featureReads(table, 1)
    assert(res.suggestionFor(3).contains("US-837-PRO")) // PRO, not CAT, by Category
    assert(reads == 1)
  }

  test("column result accessors") {
    val res = DataVinci.cleanColumn(Table.of("c" -> Seq("1", "2", "3", "4", "x")), 0)
    assert(res.errors == Set(4))
    assert(res.repairs(4).candidates.nonEmpty)
    assert(res.suggestionFor(0).isEmpty)
  }

  test("empty strings can be flagged and repaired") {
    val table = Table.of("c" -> Seq("A1", "B2", "C3", "", "D4"))
    val res = DataVinci.cleanColumn(table, 0)
    assert(res.errors == Set(3))
    val s = res.suggestionFor(3).get
    assert(s.matches("[A-Z][0-9]"))
  }

  test("county example: Nevad210 → Nevada_210 (mixed semantic+syntactic)") {
    val table = Table.of("county" -> Seq("Alpine_231", "Kings_721", "Lake_201",
                                         "Santa Clara_246", "Nevad210"))
    val res = DataVinci.cleanColumn(table, 0)
    assert(res.errors.contains(4))
    assert(res.suggestionFor(4).contains("Nevada_210"))
  }
}
