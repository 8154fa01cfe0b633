package repro.core.repair

import repro.core.{Strings, Table}

/** Boolean row features from the Table-2 predicate templates (§3.4).
  *
  * Candidate string constants come from the column's values and from tokens
  * obtained by splitting on non-alphanumeric characters, case changes and
  * alpha/digit switches; `length` uses the top-5 most frequent cell lengths.
  * Features that are constant across the table (all-true or all-false) are
  * dropped as uninformative.
  */
object Predicates {

  /** A named boolean feature evaluated per row index. */
  final case class Feature(name: String, values: Array[Boolean])

  private val NonAlphanumeric = "[^a-zA-Z0-9]+".r

  /** Split a value into candidate constant tokens (§3.4). */
  def tokensOf(v: String): Vector[String] = {
    val out = Vector.newBuilder[String]
    // split on non-alphanumeric
    out ++= NonAlphanumeric.split(v).filter(_.nonEmpty)
    // split on case change and alpha/digit switches
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
    // the unsplit value is a *column-value* constant, added by featuresOf
    out.result().filter(t => t.nonEmpty && t != v).distinct
  }

  private val MaxConstantsPerColumn = 40

  /** Generate all features over every column of `table`. */
  def featuresOf(table: Table): Vector[Feature] = {
    val n   = table.numRows
    val out = Vector.newBuilder[Feature]

    def add(name: String, f: String => Boolean, vs: Vector[String]): Unit = {
      val arr = Array.tabulate(n)(i => f(vs(i)))
      val t   = arr.count(identity)
      if (t > 0 && t < n) out += Feature(name, arr) // drop constant features
    }

    for (col <- table.cols) {
      val vs = col.values
      // candidate constants: full values + split tokens, by frequency
      val consts = (vs ++ vs.flatMap(tokensOf))
        .groupBy(identity).view.mapValues(_.size).toVector
        .sortBy { case (s, c) => (-c, s) }
        .take(MaxConstantsPerColumn).map(_._1)

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
