package repro.core.repair

import repro.core.{Column, Distinct, Strings, Table}

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Boolean row features from the Table-2 predicate templates (§3.4).
  *
  * Candidate string constants come from the column's values and from tokens
  * obtained by splitting on non-alphanumeric characters, case changes and
  * alpha/digit switches; `length` uses the top-5 most frequent cell lengths.
  * Features that are constant across the table (all-true or all-false) are
  * dropped as uninformative, and so is each feature whose rows equal those
  * of an earlier feature of the table: a tree splitting on the lowest index
  * among equal errors never picks the copy.
  *
  * A column's features are built over the column's dictionary: each template
  * is evaluated once per distinct value, into a bitset over the distinct ids,
  * and row bits are built only for the features that survive.
  */
object Predicates {

  /** A named boolean feature over the rows of a table, as a bitset: row `r`
    * is bit `r & 63` of word `r >>> 6` (the layout of `DecisionTree`'s
    * kernel).
    */
  final class Feature(val name: String, val rows: Int, val bits: Array[Long]) {
    def apply(row: Int): Boolean = ((bits(row >>> 6) >>> row) & 1L) != 0

    /** The per-row values, read from the bits. */
    def values: IndexedSeq[Boolean] = new IndexedSeq[Boolean] {
      def length: Int = rows
      def apply(row: Int): Boolean = {
        if (row < 0 || row >= rows) throw new IndexOutOfBoundsException(s"$row not in 0 until $rows")
        Feature.this(row)
      }
    }
  }

  object Feature {
    def apply(name: String, values: Array[Boolean]): Feature = {
      val bits = new Array[Long]((values.length + 63) >>> 6)
      for (r <- values.indices if values(r)) bits(r >>> 6) |= 1L << r
      new Feature(name, values.length, bits)
    }
  }

  private def isAsciiAlnum(c: Char): Boolean =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

  /** A token boundary between adjacent characters `p` and `c`. */
  private def isBoundary(p: Char, c: Char): Boolean =
    (p.isLower && c.isUpper) ||
    (p.isLetter && c.isDigit) || (p.isDigit && c.isLetter) ||
    !c.isLetterOrDigit || !p.isLetterOrDigit

  /** Split a value into candidate constant tokens (§3.4): the maximal runs of
    * ASCII letters and digits, then the segments between case changes,
    * alpha/digit switches and every other character, each token once, in
    * first-seen order. The unsplit value is a *column-value* constant, added
    * by `featuresOf`.
    */
  def tokensOf(v: String): Vector[String] = {
    val out = Vector.newBuilder[String]
    foreachToken(v)(out += _)
    out.result().distinct
  }

  /** `f` of each of `tokensOf(v)`'s tokens in order, some more than once. */
  private def foreachToken(v: String)(f: String => Unit): Unit = {
    def emit(from: Int, until: Int): Unit =
      if (from < until && until - from < v.length) f(v.substring(from, until))
    var i = 0
    while (i < v.length) {
      val start = i
      while (i < v.length && isAsciiAlnum(v(i))) i += 1
      if (i == start) i += 1 else emit(start, i)
    }
    var start = 0
    i = 1
    while (i <= v.length) {
      if (i == v.length || isBoundary(v(i - 1), v(i))) { emit(start, i); start = i }
      i += 1
    }
  }

  private val MaxConstantsPerColumn = 40

  /** A candidate constant, the rows it occurs in, and the last distinct id
    * counted for it.
    */
  private final class Candidate(val s: String) {
    var rows   = 0
    var lastId = -1
  }

  /** Most rows first, ties by string. */
  private val byRowsThenString: java.util.Comparator[Candidate] = (a, b) =>
    if (a.rows != b.rows) Integer.compare(b.rows, a.rows) else a.s.compareTo(b.s)

  /** Generate all features over every column of `table`, each row set once. */
  def featuresOf(table: Table): Vector[Feature] = {
    val out = Vector.newBuilder[Feature]
    table.cols.foreach(columnFeatures(_, out))
    val seen = mutable.HashSet.empty[ArraySeq[Long]]
    out.result().filter(f => seen.add(ArraySeq.unsafeWrapArray(f.bits)))
  }

  /** The column's candidate constants (§3.4): its distinct values and their
    * split tokens, the `MaxConstantsPerColumn` of most rows, ties by string.
    */
  private def constants(dict: Distinct): Array[String] = {
    val byString = new java.util.HashMap[String, Candidate]
    var d = 0
    // a value and its tokens count its rows once each
    def count(s: String): Unit = {
      val c = byString.computeIfAbsent(s, new Candidate(_))
      if (c.lastId != d) { c.rows += dict.counts(d); c.lastId = d }
    }
    while (d < dict.values.size) {
      val v = dict.values(d)
      count(v)
      foreachToken(v)(count)
      d += 1
    }
    val cands = byString.values.toArray(new Array[Candidate](byString.size))
    java.util.Arrays.sort(cands, byRowsThenString)
    cands.iterator.take(MaxConstantsPerColumn).map(_.s).toArray
  }

  /** Adds the column's features to `out`. Each candidate feature is first a
    * hit set: a bitset over the column's distinct ids. Its row count is the
    * sum of its ids' counts, and since every id has a row, equal hit sets
    * mean equal rows; so a constant feature, or one with the ids of an
    * earlier feature of the column, is dropped before its name or row bits
    * are built. A kept feature's row bits take one pass over the rows.
    */
  private def columnFeatures(col: Column, out: mutable.Growable[Feature]): Unit = {
    val n    = col.size
    val dict = col.distinct
    val ds   = dict.values.toArray
    val m    = ds.length
    val hw   = (m + 63) >>> 6 // words of a hit set

    def foreachId(hit: Array[Long])(f: Int => Unit): Unit =
      for (w <- 0 until hw) {
        var b = hit(w)
        while (b != 0) { f((w << 6) + java.lang.Long.numberOfTrailingZeros(b)); b &= b - 1 }
      }

    val seen = mutable.HashSet.empty[ArraySeq[Long]]

    /** Adds the feature whose ids are `hit`, unless it is constant over the
      * rows or has the rows of an earlier feature of the column.
      */
    def add(name: => String, hit: Array[Long]): Unit = {
      var rows = 0
      foreachId(hit)(rows += dict.counts(_))
      if (rows > 0 && rows < n && seen.add(ArraySeq.unsafeWrapArray(hit))) {
        val bits = new Array[Long]((n + 63) >>> 6)
        var r = 0
        while (r < n) {
          val d = dict.ids(r)
          if (((hit(d >>> 6) >>> d) & 1L) != 0) bits(r >>> 6) |= 1L << r
          r += 1
        }
        out += new Feature(name, n, bits)
      }
    }

    /** The hit set of the ids that satisfy `p`. */
    def hits(p: Int => Boolean): Array[Long] = {
      val hit = new Array[Long](hw)
      var d = 0
      while (d < m) { if (p(d)) hit(d >>> 6) |= 1L << d; d += 1 }
      hit
    }

    // the four string templates of a constant in one pass: equals ⇒ startsWith ⇒ contains
    for (s <- constants(dict)) {
      val eq, has, starts, ends = new Array[Long](hw)
      var d = 0
      while (d < m) {
        val v = ds(d)
        if (v.contains(s)) {
          val w   = d >>> 6
          val bit = 1L << d
          has(w) |= bit
          if (v.startsWith(s)) {
            starts(w) |= bit
            if (v.length == s.length) eq(w) |= bit
          }
          if (v.endsWith(s)) ends(w) |= bit
        }
        d += 1
      }
      add(s"equals(${col.name},$s)",     eq)
      add(s"contains(${col.name},$s)",   has)
      add(s"startsWith(${col.name},$s)", starts)
      add(s"endsWith(${col.name},$s)",   ends)
    }
    val topLens = (0 until m).groupMapReduce(ds(_).length)(dict.counts(_))(_ + _)
      .toVector.sortBy { case (l, c) => (-c, l) }.take(5).map(_._1)
    for (l <- topLens) add(s"length(${col.name},$l)", hits(ds(_).length == l))

    val numeric = Array.tabulate(m)(d => Strings.isNumeric(ds(d)))
    add(s"hasDigits(${col.name})", hits(ds(_).exists(_.isDigit)))
    add(s"isNum(${col.name})",     hits(numeric(_)))
    add(s"isText(${col.name})",    hits(d => ds(d).nonEmpty && !numeric(d)))
    add(s"isError(${col.name})",   hits(ds(_).startsWith("#")))
    add(s"isFormula(${col.name})", hits(ds(_).startsWith("=")))
    add(s"isLogical(${col.name})", hits(d => ds(d).equalsIgnoreCase("true") || ds(d).equalsIgnoreCase("false")))
    add(s"isNA(${col.name})",      hits(d => ds(d).isEmpty || ds(d).equalsIgnoreCase("na") || ds(d).equalsIgnoreCase("n/a") || ds(d) == "-"))
  }
}
