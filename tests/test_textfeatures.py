import io
import json

import pytest
from hypothesis import example, given, strategies as st

from gamiscreen.errors import InputError
from gamiscreen.textfeatures import (
    AppRecord,
    Lexicon,
    VariableGrouping,
    _TOKEN_RE,
    default_lexicon,
    extract_features,
    load_lexicon_file,
    tokenize,
)

VARIABLE_ORDER = (
    "Activity Tracking", "Entertainment", "Game Labels", "Engagement",
    "Quizzes", "Player Aspects", "Diary", "Change", "Story", "Progress",
    "Purpose", "Quest", "Routine", "Statistics",
)


class TestTokenize:
    def test_basic(self):
        assert tokenize("Track your progress!") == ["track", "your", "progress"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_separators(self):
        assert tokenize("Fun&games—QUIZ time") == ["fun", "games", "quiz", "time"]

    def test_underscore_separates(self):
        assert tokenize("game_on") == ["game", "on"]

    def test_digits_kept(self):
        assert tokenize("level 2 quest") == ["level", "2", "quest"]

    def test_unicode_letters_kept(self):
        assert tokenize("Café quiz") == ["café", "quiz"]


class TestDefaultLexicon:
    def test_size(self, lexicon):
        assert len(lexicon.keywords) == 79

    def test_split_cell_contributes_both(self, lexicon):
        assert "gamify" in lexicon
        assert "gaming" in lexicon

    def test_all_lowercase_single_token(self, lexicon):
        for k in lexicon.keywords:
            assert k == k.casefold()
            assert tokenize(k) == [k]

    def test_inflections_listed_separately(self, lexicon):
        assert {"game", "games", "track", "tracking", "quest", "quests"} <= lexicon.keywords

    def test_invalid_keyword_rejected(self):
        with pytest.raises(InputError):
            Lexicon(keywords=frozenset({"two words"}))


class TestDefaultGrouping:
    def test_variable_order(self, grouping):
        assert grouping.names == VARIABLE_ORDER

    def test_names_are_built_once(self):
        g = VariableGrouping(variables=(("A", frozenset({"game"})), ("B", frozenset({"quiz"}))))
        assert g.names == ("A", "B") and g.names is g.names

    def test_members(self, grouping):
        assert grouping.members("Activity Tracking") == frozenset(
            {"log", "logging", "measure", "monitor", "track", "tracking"})
        assert grouping.members("Quizzes") == frozenset({"quiz", "trivia"})
        assert grouping.members("Diary") == frozenset({"diary"})

    def test_members_of_an_unknown_variable(self, grouping):
        with pytest.raises(KeyError) as exc:
            grouping.members("No Such Variable")
        assert exc.value.args == ("No Such Variable",)

    def test_disjoint_and_in_lexicon(self, grouping, lexicon):
        grouping.check_against(lexicon)
        total = sum(len(m) for _, m in grouping.variables)
        assert total == len(grouping.all_keywords)  # pairwise disjoint

    def test_overlapping_grouping_rejected(self):
        with pytest.raises(InputError):
            VariableGrouping(variables=(
                ("A", frozenset({"game"})),
                ("B", frozenset({"game", "play"})),
            ))

    @pytest.mark.parametrize("variables, message", [
        ((("A", {"game"}), ("A", {"play"})), "duplicate variable names: ['A']"),
        ((("A", {"Quiz"}),), "invalid variable 'A' keyword: 'Quiz'"),
        ((("A", {"two words"}),), "invalid variable 'A' keyword: 'two words'"),
        ((("A", {""}),), "invalid variable 'A' keyword: ''"),
    ], ids=["duplicate names", "not casefolded", "two tokens", "empty"])
    def test_malformed_grouping_rejected(self, variables, message):
        with pytest.raises(InputError) as exc:
            VariableGrouping(variables=tuple((n, frozenset(m)) for n, m in variables))
        assert str(exc.value) == message


def record_of(words):
    """A listing whose description is exactly `words`."""
    return AppRecord(id="1", store="ios", description=" ".join(sorted(words)))


class TestMatching:
    def test_title_matched(self, grouping):
        r = AppRecord(id="1", store="ios", title="Quiz about BC", description="")
        assert extract_features(r, grouping).matched_keywords == {"quiz"}

    def test_near_miss_token(self, grouping):
        r = AppRecord(id="1", store="ios", description="gamer community")
        assert extract_features(r, grouping).matched_keywords == set()

    def test_whole_token_scan(self, grouping):
        r = AppRecord(id="1", store="android", description="Log and track your routine")
        assert extract_features(r, grouping).matched_keywords == {"log", "track", "routine"}

    def test_no_substring_matching(self, grouping):
        r = AppRecord(id="1", store="android", description="untracked gamesmanship")
        assert extract_features(r, grouping).matched_keywords == set()


class TestBuildFeatures:
    def test_empty(self, grouping):
        fv = extract_features(record_of(set()), grouping)
        assert fv.bits == (0,) * 14

    def test_activity_tracking_only(self, grouping):
        fv = extract_features(record_of({"log", "track"}), grouping)
        expected = tuple(1 if n == "Activity Tracking" else 0 for n in grouping.names)
        assert fv.bits == expected

    def test_three_variables(self, grouping):
        fv = extract_features(record_of({"quiz", "story", "diary"}), grouping)
        on = {"Quizzes", "Story", "Diary"}
        assert fv.bits == tuple(1 if n in on else 0 for n in grouping.names)

    def test_lexicon_word_outside_grouping_sets_no_bit(self, grouping):
        # "score" is a lexicon keyword but belongs to no model variable, so it is not matched
        r = AppRecord(id="1", store="android", description="high score")
        fv = extract_features(r, grouping)
        assert fv.bits == (0,) * 14
        assert fv.matched_keywords == frozenset()


class TestRecordValidation:
    def test_empty_id_rejected(self):
        with pytest.raises(InputError):
            AppRecord(id="", store="ios")

    def test_bad_store_rejected(self):
        with pytest.raises(InputError):
            AppRecord(id="1", store="windows")

    def test_bad_label_rejected(self):
        with pytest.raises(InputError):
            AppRecord(id="1", store="ios", gamification_label=2)


text_strategy = st.text(
    alphabet=st.characters(exclude_categories=("Cs",)), max_size=200)


class TestProperties:
    @given(text_strategy)
    def test_case_invariance(self, text):
        import gamiscreen as g
        grouping = g.default_grouping()
        r1 = AppRecord(id="1", store="ios", description=text)
        r2 = AppRecord(id="2", store="ios", description=text.upper())
        fv1 = extract_features(r1, grouping)
        fv2 = extract_features(r2, grouping)
        assert fv1.bits == fv2.bits

    @given(text_strategy)
    def test_idempotence(self, text):
        import gamiscreen as g
        grouping = g.default_grouping()
        r = AppRecord(id="1", store="ios", description=text)
        assert extract_features(r, grouping) == extract_features(r, grouping)

    @given(text_strategy)
    def test_appending_non_keyword_text_is_noop(self, text):
        import gamiscreen as g
        grouping = g.default_grouping()
        r1 = AppRecord(id="1", store="ios", description=text)
        r2 = AppRecord(id="2", store="ios", description=text + " zyxxyq blorp9")
        assert (extract_features(r1, grouping).bits
                == extract_features(r2, grouping).bits)

    @given(st.sets(st.sampled_from(sorted({
        "log", "play", "game", "engage", "quiz", "player", "diary", "change",
        "story", "progress", "purpose", "quest", "routine", "statistics",
        "score", "badges", "fun", "track"}))))
    def test_bit_semantics(self, chosen):
        import gamiscreen as g
        grouping = g.default_grouping()
        fv = extract_features(record_of(chosen), grouping)
        for i, (name, members) in enumerate(grouping.variables):
            assert fv.bits[i] == int(bool(chosen & members))


def regex_tokens(text):
    return [t.casefold() for t in _TOKEN_RE.findall(text)]


ascii_text = st.text(alphabet=st.one_of(
    st.characters(max_codepoint=127),
    st.sampled_from("_0123456789\t\n\r\x0b\x0c\x00\x1c\x1f\x7f")), max_size=200)
unicode_text = st.text(alphabet=st.one_of(
    st.characters(exclude_categories=("Cs",)),
    # dotted capital I, sharp s, combining acute and diaeresis, fi ligature,
    # and Unicode whitespace: no-break, em and ideographic spaces, line separator
    st.sampled_from("\u0130\u00df\u0301\u0308\ufb01\u00a0\u2003\u3000\u2028")), max_size=200)


class TestTokenizeMatchesRegex:
    """The ASCII translate-and-split path gives the regex result."""

    @given(ascii_text)
    @example("game_on\tLEVEL2\x1fquiz\x7f__9")
    @example("".join(map(chr, range(128))))  # every byte of the ASCII table
    def test_ascii(self, text):
        assert text.isascii()
        assert tokenize(text) == regex_tokens(text)

    @given(unicode_text)
    @example("\u0130stanbul Stra\u00dfe cafe\u0301\u3000QUIZ\u00a0game")
    def test_unicode(self, text):
        assert tokenize(text) == regex_tokens(text)


# Two groupings share keywords but put them on different bits: a bit index
# cached across groupings would set the wrong bits for one of them.
CUSTOM_LEXICON = {
    "version": "test",
    "keywords": ["quiz", "diary", "game", "games", "track", "story", "walk"],
    "variables": [
        {"name": "Walking", "keywords": ["walk"]},
        {"name": "Play", "keywords": ["game", "games", "quiz"]},
        {"name": "Writing", "keywords": ["story", "diary"]},
    ],
}


def intersection_bits(matched, grouping):
    """The reference: one set intersection per variable."""
    return tuple(int(bool(matched & members)) for _, members in grouping.variables)


class TestBitIndexMatchesIntersections:
    @given(st.sets(st.sampled_from(sorted(default_lexicon().keywords) + [
        "walk", "zyxxyq", "blorp9", "gamer", "diaries"])))
    def test_default_and_custom_groupings(self, chosen):
        import gamiscreen as g
        _, custom = load_lexicon_file(io.StringIO(json.dumps(CUSTOM_LEXICON)))
        for grouping in (g.default_grouping(), custom, g.default_grouping()):
            fv = extract_features(record_of(chosen), grouping)
            assert fv.bits == intersection_bits(chosen, grouping)
            assert fv.matched_keywords == frozenset(chosen) & grouping.all_keywords

    def test_index_is_per_grouping(self, grouping):
        _, custom = load_lexicon_file(io.StringIO(json.dumps(CUSTOM_LEXICON)))
        assert custom.bit_index == {"walk": 0, "game": 1, "games": 1, "quiz": 1,
                                    "story": 2, "diary": 2}
        assert grouping.bit_index["quiz"] == grouping.names.index("Quizzes")
        assert set(grouping.bit_index) == grouping.all_keywords
