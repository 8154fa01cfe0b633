package repro.core.repair

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Table
import repro.core.repair.Predicates.Feature

class DecisionTreeSpec extends AnyFunSuite {

  private def feat(name: String, bits: Boolean*) = Feature(name, bits.toArray)

  test("pure labels learn a single leaf") {
    val f = Vector(feat("a", true, false, true))
    val t = DecisionTree.learn(f, Vector((0, "X"), (1, "X"), (2, "X"))).get
    assert(t == DecisionTree.Leaf("X"))
    assert(t.nodes == 1 && t.depth == 0)
  }

  test("majority leaf suffices at alpha 0.8") {
    val f  = Vector(feat("a", true, false, true, true, true))
    val ex = Vector((0, "X"), (1, "Y"), (2, "X"), (3, "X"), (4, "X"))
    val t  = DecisionTree.learn(f, ex).get
    assert(t == DecisionTree.Leaf("X")) // 4/5 = 0.8 ≥ α
  }

  test("depth-1 stump separates on a single predicate (Fig-2 CAT/PRO)") {
    val isPro = feat("equals(Category,Professional)", true, false, true, false)
    val ex    = Vector((0, "PRO"), (1, "CAT"), (2, "PRO"), (3, "CAT"))
    val t     = DecisionTree.learn(Vector(isPro), ex).get
    assert(t.depth == 1 && t.nodes == 3)
    assert(t.predict(0, Vector(isPro)) == "PRO")
    assert(t.predict(1, Vector(isPro)) == "CAT")
  }

  test("stump picks the best of several features") {
    val noise = feat("noise", true, true, false, false)
    val good  = feat("good", true, false, true, false)
    val ex    = Vector((0, "A"), (1, "B"), (2, "A"), (3, "B"))
    val t     = DecisionTree.learn(Vector(noise, good), ex).get
    assert(t.asInstanceOf[DecisionTree.Node].feat == 1)
  }

  test("depth-2 tree handles xor-like labels") {
    val f1 = feat("f1", true, true, false, false)
    val f2 = feat("f2", true, false, true, false)
    val ex = Vector((0, "A"), (1, "B"), (2, "B"), (3, "A"))
    val t  = DecisionTree.learn(Vector(f1, f2), ex).get
    assert(ex.forall { case (r, l) => t.predict(r, Vector(f1, f2)) == l })
    assert(t.depth == 2)
  }

  test("no qualifying tree returns None") {
    // labels uncorrelated with the only feature and no majority
    val f  = Vector(feat("a", true, true, true, false, false, false))
    val ex = Vector((0, "A"), (1, "B"), (2, "C"), (3, "D"), (4, "E"), (5, "F"))
    assert(DecisionTree.learn(f, ex).isEmpty)
  }

  test("features are read only when a split is searched") {
    def unread: Vector[Feature] = throw new AssertionError("features read")
    val ex = Vector((0, "X"), (1, "Y"), (2, "X"), (3, "X"), (4, "X"))
    val t  = DecisionTree.learn(unread, ex).get
    assert(t == DecisionTree.Leaf("X")) // 4/5 = 0.8 ≥ α
    assert(t.predict(1, unread) == "X")
    var reads = 0
    val f = Vector(feat("a", true, false, true, true, true))
    assert(DecisionTree.learn({ reads += 1; f }, ex, alpha = 1.0).get.depth == 1)
    assert(reads == 1)
  }

  test("empty examples return None") {
    assert(DecisionTree.learn(Vector(feat("a", true)), Vector.empty).isEmpty)
  }

  test("no features and no qualifying leaf return None") {
    assert(DecisionTree.learn(Vector.empty, Vector((0, "A"), (1, "B"))).isEmpty)
  }

  test("nested if-else labels learn depth 3 at alpha 1.0 and depth 2 at 0.8") {
    val bits = Vector.tabulate(3)(b => feat(s"b$b", (0 until 8).map(r => (r >> b & 1) == 1): _*))
    val ex   = (0 until 8).toVector.map { r =>
      (r, if (bits(0).values(r)) "A" else if (bits(1).values(r)) "B" else if (bits(2).values(r)) "C" else "D")
    }
    val exact = DecisionTree.learn(bits, ex, alpha = 1.0).get
    assert(exact.depth == 3)
    assert(ex.forall { case (r, l) => exact.predict(r, bits) == l })
    assert(DecisionTree.learn(bits, ex).get.depth == 2) // 7/8 rows ≥ α = 0.8
  }

  test("tie-break on label order is deterministic") {
    val f  = Vector(feat("a", true, false))
    val t1 = DecisionTree.learn(f, Vector((0, "A"), (1, "B")), alpha = 0.4).get
    val t2 = DecisionTree.learn(f, Vector((0, "A"), (1, "B")), alpha = 0.4).get
    assert(t1 == t2)
  }

  test("more than 64 examples: label counts span several words") {
    // A on rows 0–63, B on 64–127, C on 128–149
    val over64  = feat("r>=64", (0 until 150).map(_ >= 64): _*)
    val over128 = feat("r>=128", (0 until 150).map(_ >= 128): _*)
    val fs = Vector(over64, over128)
    val ex = (0 until 150).toVector.map(r => (r, if (r < 64) "A" else if (r < 128) "B" else "C"))
    import DecisionTree.{Leaf, Node}
    // the stump misses only the 22 C rows: 128/150 ≥ 0.8
    assert(DecisionTree.learn(fs, ex).get == Node(0, Leaf("B"), Leaf("A")))
    assert(DecisionTree.learn(fs, ex, alpha = 1.0).get ==
      Node(0, Node(1, Leaf("C"), Leaf("B")), Leaf("A")))
  }

  test("examples that repeat a row are rejected") {
    val f = Vector(feat("a", false, true))
    assertThrows[IllegalArgumentException](DecisionTree.learn(f, Vector((0, "A"), (1, "B"), (0, "A"))))
    assertThrows[IllegalArgumentException](DecisionTree.learn(f, Vector((0, "A"), (0, "B"))))
  }

  test("features equal on the examples split on the lower index") {
    val noise = feat("noise", true, true, false, true)
    val lower = feat("lower", true, false, true, true)
    val upper = feat("upper", true, false, false, false) // differs from lower on rows 2, 3 only
    val fs    = Vector(noise, lower, upper)
    val t     = DecisionTree.learn(fs, Vector((0, "A"), (1, "B"))).get
    assert(t == DecisionTree.Node(1, DecisionTree.Leaf("A"), DecisionTree.Leaf("B")))
    assert(t.predict(2, fs) == "A" && t.predict(3, fs) == "A")
  }

  test("a lower-indexed feature constant on the examples wins a zero-gain tie and leaves a leaf") {
    val const = feat("const", true, true, true, true)
    val f1    = feat("f1", true, true, false, false)
    val f2    = feat("f2", true, false, true, false)
    val xor   = Vector((0, "A"), (1, "B"), (2, "B"), (3, "A"))
    // every split errs on 2 of 4 at the root, so `const` (index 0) is taken
    assert(DecisionTree.learn(Vector(const, f1, f2), xor).isEmpty)
    assert(DecisionTree.learn(Vector(const, f1, f2), xor, alpha = 0.5).get == DecisionTree.Leaf("A"))
    assert(DecisionTree.learn(Vector(f1, f2, const), xor).get.depth == 2)
  }
}

class PredicatesSpec extends AnyFunSuite {

  test("token split on non-alphanumeric, case change and alpha-digit switch") {
    assert(Predicates.tokensOf("Ind-674-PRO").toSet.contains("Ind"))
    assert(Predicates.tokensOf("Ind-674-PRO").toSet.contains("674"))
    assert(Predicates.tokensOf("Ind-674-PRO").toSet.contains("PRO"))
    assert(Predicates.tokensOf("Chrome23").toSet == Set("Chrome", "23"))
    assert(Predicates.tokensOf("fooBar").contains("foo"))
  }

  test("constant features are dropped") {
    val t = Table.of("c" -> Seq("x-1", "x-2", "x-3"))
    val fs = Predicates.featuresOf(t)
    // contains(c,-) is true for all rows → dropped
    assert(!fs.exists(_.name == "contains(c,-)"))
  }

  test("informative equals features are generated") {
    val t  = Table.of("cat" -> Seq("Junior", "Professional", "Junior", "Professional"))
    val fs = Predicates.featuresOf(t)
    val eq = fs.find(_.name == "equals(cat,Junior)").get
    assert(eq.values.toSeq == Seq(true, false, true, false))
  }

  test("features span all columns") {
    val t  = Table.of("a" -> Seq("1", "2", "2"), "b" -> Seq("x", "x", "y"))
    val fs = Predicates.featuresOf(t)
    assert(fs.exists(_.name.contains("(a,")))
    assert(fs.exists(_.name.contains("(b,")))
  }

  test("length feature uses frequent lengths") {
    val t  = Table.of("c" -> Seq("aa", "bb", "ccc"))
    val fs = Predicates.featuresOf(t)
    assert(fs.exists(_.name == "length(c,2)"))
  }

  test("a feature whose rows equal an earlier feature's is dropped") {
    val names = Predicates.featuresOf(Table.of("c" -> Seq("12", "ab", "n/a"))).map(_.name)
    assert(names.contains("equals(c,12)"))
    assert(!names.contains("hasDigits(c)") && !names.contains("isNum(c)"))
  }

  test("hasDigits / isNum / isNA behave") {
    val t  = Table.of("c" -> Seq("12", "a1", "3.5", "n/a", "", "xy"))
    val fs = Predicates.featuresOf(t)
    assert(fs.find(_.name == "hasDigits(c)").get.values.toSeq == Seq(true, true, true, false, false, false))
    assert(fs.find(_.name == "isNum(c)").get.values.toSeq == Seq(true, false, true, false, false, false))
    assert(fs.find(_.name == "isNA(c)").get.values.toSeq == Seq(false, false, false, true, true, false))
  }
}
