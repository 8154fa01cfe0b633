package repro.core.repair

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Strings, Table}
import scala.util.Random

/** A readable `Predicates.featuresOf`: every template evaluated on every
  * row, with the split tokens found by a regex. The per-column feature
  * builder is checked against it.
  */
object PredicatesReference {

  private val NonAlphanumeric = "[^a-zA-Z0-9]+".r

  def tokensOf(v: String): Vector[String] = {
    val out = Vector.newBuilder[String]
    out ++= NonAlphanumeric.split(v).filter(_.nonEmpty)
    val b = new StringBuilder
    for (i <- v.indices) {
      val c = v(i)
      if (b.nonEmpty) {
        val p = b.last
        val boundary =
          (p.isLower && c.isUpper) ||
          (p.isLetter && c.isDigit) || (p.isDigit && c.isLetter) ||
          !c.isLetterOrDigit || !p.isLetterOrDigit
        if (boundary) { out += b.toString(); b.clear() }
      }
      b.append(c)
    }
    if (b.nonEmpty) out += b.toString()
    out.result().filter(t => t.nonEmpty && t != v).distinct
  }

  /** Candidate constants of a column with their row counts, most rows
    * first, ties by string: the values and their split tokens.
    */
  def candidates(vs: Vector[String]): Vector[(String, Int)] =
    (vs ++ vs.flatMap(tokensOf))
      .groupBy(identity).view.mapValues(_.size).toVector
      .sortBy { case (s, c) => (-c, s) }

  /** (name, per-row values) of every non-constant feature, in order. */
  def featuresOf(table: Table): Vector[(String, Array[Boolean])] = {
    val n   = table.numRows
    val out = Vector.newBuilder[(String, Array[Boolean])]

    def add(name: String, f: String => Boolean, vs: Vector[String]): Unit = {
      val arr = Array.tabulate(n)(i => f(vs(i)))
      val t   = arr.count(identity)
      if (t > 0 && t < n) out += ((name, arr))
    }

    for (col <- table.cols) {
      val vs = col.values
      val consts = candidates(vs).take(40).map(_._1)

      for (s <- consts) {
        add(s"equals(${col.name},$s)",     _ == s, vs)
        add(s"contains(${col.name},$s)",   _.contains(s), vs)
        add(s"startsWith(${col.name},$s)", _.startsWith(s), vs)
        add(s"endsWith(${col.name},$s)",   _.endsWith(s), vs)
      }
      val topLens = vs.map(_.length).groupBy(identity).view.mapValues(_.size)
        .toVector.sortBy { case (l, c) => (-c, l) }.take(5).map(_._1)
      for (l <- topLens) add(s"length(${col.name},$l)", _.length == l, vs)

      add(s"hasDigits(${col.name})", _.exists(_.isDigit), vs)
      add(s"isNum(${col.name})",     Strings.isNumeric, vs)
      add(s"isText(${col.name})",    v => v.nonEmpty && !Strings.isNumeric(v), vs)
      add(s"isError(${col.name})",   v => v.startsWith("#"), vs)
      add(s"isFormula(${col.name})", _.startsWith("="), vs)
      add(s"isLogical(${col.name})", v => v.equalsIgnoreCase("true") || v.equalsIgnoreCase("false"), vs)
      add(s"isNA(${col.name})",      v => v.isEmpty || v.equalsIgnoreCase("na") || v.equalsIgnoreCase("n/a") || v == "-", vs)
    }
    out.result()
  }
}

class PredicatesDifferentialSpec extends AnyFunSuite {

  // ASCII and non-ASCII letters of both cases, ASCII and non-ASCII digits
  // (Arabic-Indic, fullwidth), separators, and the type templates' prefixes
  private val Chars: Vector[Char] =
    ("aAbBzZqQxX0123456789" + "éÉßΩωİıЖж" + "٣٧３" + "-_. ,#=/:").toVector

  private val Specials = Vector("", "", "true", "FALSE", "NA", "n/a", "-", "#REF!", "=A1+1",
    "1,234", "-3.5e2", "NaN", "Infinity", "0x1p3", "12", "Customer#000000012", "Ind-674-PRO")

  private def randomValue(rng: Random): String =
    if (rng.nextInt(5) == 0) Specials(rng.nextInt(Specials.size))
    else Vector.fill(rng.nextInt(12))(Chars(rng.nextInt(Chars.size))).mkString

  /** One column of `n` rows: drawn from a small pool (repeats), all
    * distinct, constant, or mostly empty.
    */
  private def randomColumn(rng: Random, n: Int): Vector[String] = rng.nextInt(4) match {
    case 0 =>
      val pool = Vector.fill(1 + rng.nextInt(6))(randomValue(rng))
      Vector.fill(n)(pool(rng.nextInt(pool.size)))
    case 1 => Vector.tabulate(n)(i => randomValue(rng) + "~" + i)
    case 2 => Vector.fill(n)(randomValue(rng))
    case _ => Vector.fill(n)(if (rng.nextInt(3) == 0) randomValue(rng) else "")
  }

  /** A column of `n` rows drawn from a pool of 65–130 distinct values, so
    * that its dictionary spans more than one word once `n` is large.
    */
  private def wideColumn(rng: Random, n: Int): Vector[String] = {
    val pool = Vector.tabulate(65 + rng.nextInt(66))(k => randomValue(rng) + "~" + k)
    Vector.fill(n)(pool(rng.nextInt(pool.size)))
  }

  /** `featuresOf(table)` has the reference's names, order and row values,
    * each reference feature whose row values repeat an earlier one's dropped.
    */
  private def assertMatchesReference(i: Int, table: Table): Unit = {
    val want = PredicatesReference.featuresOf(table).distinctBy(_._2.toSeq)
    val got  = Predicates.featuresOf(table)
    assert(got.map(_.name) == want.map(_._1), s"case $i: names differ on $table")
    assert(got.map(_.values.toSeq).distinct.size == got.size, s"case $i: repeated row values on $table")
    for ((g, (name, values)) <- got.zip(want))
      assert((0 until table.numRows).forall(r => g.values(r) == values(r)), s"case $i: $name differs on $table")
  }

  test("tokensOf returns the reference's tokens on random strings") {
    val rng = new Random(61018L)
    for (i <- 0 until 20000) {
      val v = randomValue(rng)
      assert(Predicates.tokensOf(v) == PredicatesReference.tokensOf(v), s"case $i: '$v'")
    }
  }

  test("featuresOf returns the reference's names, order and row values on random tables") {
    val rng = new Random(20261018L)
    var wide, constant = 0
    for (i <- 0 until 400) {
      val n     = 1 + rng.nextInt(if (rng.nextBoolean()) 40 else 160)
      val cols  = Vector.tabulate(1 + rng.nextInt(3))(c => s"c$c" -> randomColumn(rng, n))
      val withConst = if (rng.nextInt(4) == 0) cols :+ ("k" -> Vector.fill(n)("same")) else cols
      assertMatchesReference(i, Table.of(withConst: _*))
      if (n > 64) wide += 1
      if (withConst.size > cols.size) constant += 1
    }
    assert(wide >= 50 && constant >= 50, s"wide=$wide constant=$constant")
  }

  test("featuresOf matches the reference on wide dictionaries, copied columns, tied constants and empty values") {
    val rng = new Random(20261021L)
    var wideDict, copied, tiedCut, emptyConst = 0
    for (i <- 0 until 300) {
      val n    = 1 + rng.nextInt(200)
      val base = Vector.tabulate(1 + rng.nextInt(2)) { c =>
        s"c$c" -> (if (rng.nextInt(3) == 0) wideColumn(rng, n) else randomColumn(rng, n))
      }
      // a copy of a column under another name: every feature of it repeats one of the original's
      val cols = if (rng.nextBoolean()) base :+ ("copy" -> base(rng.nextInt(base.size))._2) else base
      assertMatchesReference(i, Table.of(cols: _*))
      val cands = cols.map { case (_, vs) => PredicatesReference.candidates(vs) }
      if (cols.exists(_._2.distinct.size > 64)) wideDict += 1
      if (cols.size > base.size && PredicatesReference.featuresOf(Table.of(cols.last)).nonEmpty) copied += 1
      // the 40th and 41st candidates have equal row counts: the string order decides the cut
      if (cands.exists(cs => cs.size > 40 && cs(39)._2 == cs(40)._2)) tiedCut += 1
      if (cands.exists(_.take(40).exists(_._1.isEmpty))) emptyConst += 1
    }
    assert(Seq(wideDict, copied, tiedCut, emptyConst).forall(_ >= 30),
      s"wide=$wideDict copied=$copied tied=$tiedCut empty=$emptyConst")
  }

  test("featuresOf on all-distinct columns: the reference at 20 000 rows, each feature's own template at 400 000") {
    val rng = new Random(20261022L)
    val mid = Vector.tabulate(20000)(i => randomValue(rng) + "~" + i)
    assertMatchesReference(0, Table.of("c" -> mid))

    // one dictionary id per row: row bits built per id would take n * n / 64 words here
    val n    = 400000
    val vs   = Vector.tabulate(n)(i => "r" + i)
    val got  = Predicates.featuresOf(Table.of("c" -> vs))
    val Call = """(\w+)\(c(?:,(.*))?\)""".r
    for (f <- got) {
      val p: String => Boolean = f.name match {
        case Call("equals", s)     => _ == s
        case Call("contains", s)   => _.contains(s)
        case Call("startsWith", s) => _.startsWith(s)
        case Call("endsWith", s)   => _.endsWith(s)
        case Call("length", l)     => _.length == l.toInt
        case Call("hasDigits", _)  => _.exists(_.isDigit)
        case Call("isText", _)     => v => v.nonEmpty && !Strings.isNumeric(v)
        case other                 => fail(s"unexpected feature $other")
      }
      assert(f.rows == n && f.bits.length == (n + 63) / 64)
      assert((0 until n).forall(r => f(r) == p(vs(r))), s"${f.name} differs")
    }
    // "r" and 39 digit strings are the constants; only some of the latter are contained in a value
    assert(got.count(_.name.startsWith("contains(")) >= 30, got.map(_.name))
  }
}
